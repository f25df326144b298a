package core

import (
	"shahin/internal/dataset"
	"shahin/internal/explain/exact"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// buildExact builds the exact TreeSHAP prototype a runner's engines
// fork, or says why the path is not legal: a fault chain (the walker
// reads tree structure directly and cannot route through the degradation
// ladder), or a classifier exact.New refuses. cls is the caller's own,
// below any meter or bridge.
func buildExact(opts Options, st *dataset.Stats, cls rf.Classifier) (_ *exact.Explainer, reason string) {
	if opts.Fault != nil {
		return nil, "fault_chain"
	}
	proto, err := exact.New(st, cls, opts.Exact)
	if err != nil {
		return nil, "unsupported_classifier"
	}
	return proto, ""
}

// resolveExact decides an ExactSHAP request for a runner, once, at its
// construction: it returns the prototype buildExact gave, or downgrades
// the request to KernelSHAP — here and nowhere else: the kind is
// rewritten, the exact_fallback marker emitted with the reason, and
// fellBack is what the runner stamps on its reports as ExactFallback.
func resolveExact(opts Options, st *dataset.Stats, cls rf.Classifier) (_ Options, proto *exact.Explainer, fellBack bool) {
	if opts.Explainer != ExactSHAP {
		return opts, nil, false
	}
	proto, reason := buildExact(opts, st, cls)
	if proto != nil {
		return opts, proto, false
	}
	opts.Recorder.Emit(obs.Event{
		Type: obs.EventExactFallback, Tuple: -1,
		Explainer: ExactSHAP.String(), State: reason,
	})
	opts.Explainer = SHAP
	return opts, nil, true
}
