package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheck flags statements that silently discard an error result —
// the classic lost csv.Writer.Flush or File.Close in round-trip code.
// Explicitly assigning to the blank identifier is allowed (the discard
// is visible in review); so are the fmt printing helpers and the
// in-memory writers (strings.Builder, bytes.Buffer) whose errors are
// structurally impossible.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "forbid silently discarded error returns",
	Run:  runErrCheck,
}

// errcheckExemptReceivers never fail their write methods.
var errcheckExemptReceivers = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func runErrCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = stmt.Call
			case *ast.DeferStmt:
				call = stmt.Call
			}
			if call == nil || !hasErrorResult(info, call) {
				return true
			}
			pass.InScope()
			if errcheckExemptCall(info, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s's error result is discarded; handle it or annotate the call with //shahinvet:allow errcheck", types.ExprString(call.Fun))
			return true
		})
	}
}

// errcheckExemptCall reports whether the call is on the exempt list:
// any fmt function, or a method on an in-memory writer.
func errcheckExemptCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return errcheckExemptReceivers[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}
