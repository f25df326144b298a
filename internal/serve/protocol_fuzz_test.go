package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"shahin/internal/obs"
)

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// echo is the per-tuple answer of the fuzzed protocol: the cells its
// Bind was handed.
type echo struct {
	Cells []float64 `json:"cells"`
}

// FuzzProtocolDecode throws arbitrary body bytes and an arbitrary
// traceparent at Protocol.Mount's two POST routes — the decoder both
// serving tiers share, since shahin-router mounts the same Protocol —
// with a Bind that records what it is handed. Whatever arrives: no panic;
// the status is 200 or 400; a 400 says why in the one error body and
// hands Bind's function nothing; a 200 means every tuple of the body had
// exactly Width cells, each was handed over exactly once, and the answer
// has them in the body's order with Count to match; and the identity
// echoed is well formed, the caller's trace when it sent a valid one.
func FuzzProtocolDecode(f *testing.F) {
	const width = 3
	const trace = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, seed := range []struct {
		body  string
		tp    string
		batch bool
		lead  uint8
	}{
		{`{"tuple":[1,2,3]}`, trace, false, 0},
		{`{"tuples":[[1,2,3],[4,5,6]],"explainer":"lime"}`, "", true, 1},
		{`{"tuple":[1,2]}`, "", false, 0},                  // a short tuple
		{`{"tuples":[[1,2,3],[1,2,3,4]]}`, trace, true, 0}, // a long one, second in its batch
		{`{"tuples":[]}`, "", true, 0},                     // no tuples
		{`{"tuples":[[[1,2,3]]]}`, "", true, 0},            // nested arrays
		{`{"tuple":[1,2,[3]]}`, "", false, 0},
		{`{"tuple":[1e999,2,3]}`, "", false, 0},                // out of float64's range
		{`{"tuple":[1,2,3],"model":"x"}`, "", false, 0},        // an unknown field
		{`{"tuple":[1,2],"tuple":[1,2,3]}`, "", false, 0},      // a duplicate key: the last wins
		{`{"tuple":[1,2,3]}`, "", false, 255},                  // maxBodyBytes+1 before the value
		{`{"tuple":[1,2,3],"explainer":"nope"}`, "", false, 0}, // Bind's refusal
		{`{"tuples":[null,[1,2,3]]}`, "", true, 0},
		{`null`, "ff-00-00-00", false, 0},
		{`{"tuple":[1,2,3]} {"tuple":[4,5,6]}`, trace + "-", false, 0},
		{`{"tuples":[[-0,2.5e-3,3E2]]}`, strings.ToUpper(trace), true, 3},
	} {
		f.Add([]byte(seed.body), seed.tp, seed.batch, seed.lead)
	}

	f.Fuzz(func(t *testing.T, body []byte, traceparent string, batch bool, lead uint8) {
		var (
			mu     sync.Mutex
			handed [][]float64
		)
		mux := http.NewServeMux()
		Protocol[echo]{
			Width: width,
			Ready: func() bool { return true },
			Bind: func(explainer string) (func(context.Context, []float64, obs.TraceContext, string) (echo, int, error), error) {
				if explainer != "" && explainer != "lime" {
					return nil, fmt.Errorf("unknown explainer %q", explainer)
				}
				return func(_ context.Context, tuple []float64, _ obs.TraceContext, _ string) (echo, int, error) {
					mu.Lock()
					handed = append(handed, tuple)
					mu.Unlock()
					return echo{Cells: tuple}, http.StatusOK, nil
				}, nil
			},
		}.Mount(mux)

		// lead spaces come before the body; 255 stands for one more than
		// the protocol reads, without a corpus entry that large.
		n := int64(lead)
		if lead == 255 {
			n = maxBodyBytes + 1
		}
		path := "/v1/explain"
		if batch {
			path += "/batch"
		}
		req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(io.LimitReader(spaces{}, n), bytes.NewReader(body)))
		req.Header["Traceparent"] = []string{traceparent}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusBadRequest:
			var refusal errorResponse
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&refusal); err != nil || refusal.Error == "" {
				t.Fatalf("400 body is not {\"error\": …}: %v", err)
			}
			if len(handed) != 0 {
				t.Fatalf("400 (%s) after Bind's function was handed %v", refusal.Error, handed)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d; the protocol answers 200 or 400 here", rec.Code)
		}

		// What the body said, read without the protocol: its first JSON
		// value, leniently.
		var sent struct {
			Tuple  []float64
			Tuples [][]float64
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("200 for a body encoding/json cannot read: %v", err)
		}
		want := sent.Tuples
		var got []echo
		if batch {
			var resp BatchResponse[echo]
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body: %v", err)
			}
			if resp.Count != len(resp.Explanations) {
				t.Fatalf("Count=%d beside %d explanations", resp.Count, len(resp.Explanations))
			}
			got = resp.Explanations
		} else {
			want, got = [][]float64{sent.Tuple}, make([]echo, 1)
			if err := json.Unmarshal(rec.Body.Bytes(), &got[0]); err != nil {
				t.Fatalf("200 body: %v", err)
			}
		}
		if len(got) != len(want) || len(handed) != len(want) || len(want) == 0 {
			t.Fatalf("the body has %d tuples, Bind's function was handed %d, the answer has %d", len(want), len(handed), len(got))
		}
		for i, tuple := range want {
			if len(tuple) != width {
				t.Fatalf("200 with tuple %d %d cells wide, Width is %d", i, len(tuple), width)
			}
			if !reflect.DeepEqual(got[i].Cells, tuple) {
				t.Fatalf("answer %d is for %v, the body's tuple %d is %v", i, got[i].Cells, i, tuple)
			}
		}
		// The fan-out hands tuples over in any order: compare as multisets.
		a, b := make([]string, len(want)), make([]string, len(want))
		for i := range want {
			a[i], b[i] = fmt.Sprint(handed[i]), fmt.Sprint(want[i])
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Bind's function was handed %v, the body has %v", a, b)
		}

		echoed, err := obs.ParseTraceparent(rec.Header().Get("Traceparent"))
		if err != nil || echoed.TraceID != rec.Header().Get("X-Shahin-Trace-Id") {
			t.Fatalf("echoed identity %q / %q: %v", rec.Header().Get("Traceparent"), rec.Header().Get("X-Shahin-Trace-Id"), err)
		}
		if in, err := obs.ParseTraceparent(traceparent); err == nil && echoed.TraceID != in.TraceID {
			t.Fatalf("the caller's trace %s came back as %s", in.TraceID, echoed.TraceID)
		}
	})
}
