package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildTestCFG parses a function body (given as the statements between
// the braces) and returns its CFG.
func buildTestCFG(t *testing.T, body string) *FuncCFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body)
}

// reachableFrom returns start and every block its Succs edges lead to.
func reachableFrom(start *Block) map[*Block]bool {
	out := make(map[*Block]bool)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if out[b] {
			return
		}
		out[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
	}
	dfs(start)
	return out
}

// reaches reports whether to can be reached from from over one or more
// Succs edges; reaches(b, b) is "b lies on a cycle", loops formed by
// goto included.
func reaches(from, to *Block) bool {
	for _, s := range from.Succs {
		if reachableFrom(s)[to] {
			return true
		}
	}
	return false
}

// findBlock returns the first reachable block containing a node for
// which pred returns true, or nil.
func findBlock(g *FuncCFG, pred func(ast.Node) bool) *Block {
	for blk := range reachableFrom(g.Entry) {
		for _, n := range blk.Nodes {
			if pred(n) {
				return blk
			}
		}
	}
	return nil
}

func TestCFGStraightLine(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nx++\n_ = x")
	if len(g.Exit.Preds) == 0 {
		t.Fatal("straight-line body does not reach the exit")
	}
	if len(g.PanicExit.Preds) != 0 {
		t.Error("straight-line body reaches the panic exit")
	}
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(g.Entry.Nodes))
	}
}

func TestCFGBranches(t *testing.T) {
	g := buildTestCFG(t, `x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`)
	// The condition block must have two successors (then and else).
	cond := findBlock(g, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		return ok && be.Op == token.GTR
	})
	if cond == nil {
		t.Fatal("condition expression not recorded in any block")
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("condition block has %d successors, want 2", len(cond.Succs))
	}
	if len(g.Exit.Preds) == 0 {
		t.Error("if/else does not rejoin and reach the exit")
	}
}

func TestCFGEarlyReturnAndPanic(t *testing.T) {
	g := buildTestCFG(t, `x := 0
if x > 0 {
	return
}
if x < 0 {
	panic("neg")
}
_ = x`)
	ret := findBlock(g, func(n ast.Node) bool {
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
	if ret == nil {
		t.Fatal("return statement not recorded")
	}
	found := false
	for _, s := range ret.Succs {
		if s == g.Exit {
			found = true
		}
	}
	if !found {
		t.Error("return block does not flow to the normal exit")
	}
	if len(g.PanicExit.Preds) == 0 {
		t.Error("panic(...) does not reach the panic exit")
	}
	for _, p := range g.PanicExit.Preds {
		if p == g.Exit {
			t.Error("panic exit wired through the normal exit")
		}
	}
}

func TestCFGLoops(t *testing.T) {
	g := buildTestCFG(t, `total := 0
for i := 0; i < 10; i++ {
	total += i
}
_ = total`)
	body := findBlock(g, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.ADD_ASSIGN
	})
	if body == nil || !reaches(body, body) {
		t.Error("loop body block has no path back to itself")
	}
	after := findBlock(g, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == "_"
	})
	if after == nil {
		t.Fatal("statement after the loop not recorded")
	}
	if reaches(after, after) || reaches(after, body) {
		t.Error("block after the loop flows back into it")
	}
}

func TestCFGRangeLoop(t *testing.T) {
	g := buildTestCFG(t, `items := []int{1, 2}
n := 0
for _, it := range items {
	n += it
}
_ = n`)
	body := findBlock(g, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.ADD_ASSIGN
	})
	if body == nil || !reaches(body, body) {
		t.Error("range body block has no path back to itself")
	}
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	g := buildTestCFG(t, `sum := 0
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if j == 1 {
			continue outer
		}
		if j == 2 {
			break outer
		}
		sum++
	}
}
_ = sum`)
	// continue outer must flow to the outer post (i++), not the inner.
	cont := findBlock(g, func(n ast.Node) bool {
		bs, ok := n.(*ast.BranchStmt)
		return ok && bs.Tok == token.CONTINUE && bs.Label != nil
	})
	if cont == nil {
		t.Fatal("continue outer not recorded")
	}
	outerPost := findBlock(g, func(n ast.Node) bool {
		inc, ok := n.(*ast.IncDecStmt)
		if !ok {
			return false
		}
		id, ok := inc.X.(*ast.Ident)
		return ok && id.Name == "i"
	})
	if outerPost == nil {
		t.Fatal("outer post statement not recorded")
	}
	foundPost := false
	for _, s := range cont.Succs {
		if s == outerPost {
			foundPost = true
		}
	}
	if !foundPost {
		t.Error("continue outer does not flow to the outer loop's post block")
	}
	// break outer must flow to the block after the outer loop.
	brk := findBlock(g, func(n ast.Node) bool {
		bs, ok := n.(*ast.BranchStmt)
		return ok && bs.Tok == token.BREAK && bs.Label != nil
	})
	after := findBlock(g, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == "_"
	})
	if brk == nil || after == nil {
		t.Fatal("break outer or trailing statement not recorded")
	}
	if !reaches(brk, after) {
		t.Error("break outer does not reach the code after the loop")
	}
	// The break must not loop back to either head.
	if reaches(brk, brk) {
		t.Error("break outer flows back into a loop block")
	}
}

func TestCFGGotoLoop(t *testing.T) {
	g := buildTestCFG(t, `i := 0
loop:
i++
if i < 3 {
	goto loop
}
_ = i`)
	inc := findBlock(g, func(n ast.Node) bool {
		_, ok := n.(*ast.IncDecStmt)
		return ok
	})
	if inc == nil || !reaches(inc, inc) {
		t.Fatal("goto-formed loop has no cycle through the labeled block")
	}
	if len(g.Exit.Preds) == 0 {
		t.Error("goto loop never reaches the exit")
	}
}

func TestCFGDeferIsOrdinaryNode(t *testing.T) {
	g := buildTestCFG(t, `defer cleanup()
work()`)
	d := findBlock(g, func(n ast.Node) bool {
		_, ok := n.(*ast.DeferStmt)
		return ok
	})
	if d == nil {
		t.Fatal("defer statement not recorded as a block node")
	}
}

func TestCFGSelectClauses(t *testing.T) {
	g := buildTestCFG(t, `ch := make(chan int)
done := make(chan bool)
select {
case v := <-ch:
	_ = v
case <-done:
}
work()`)
	sel := findBlock(g, func(n ast.Node) bool {
		_, ok := n.(*ast.SelectStmt)
		return ok
	})
	if sel == nil {
		t.Fatal("select statement not recorded")
	}
	if len(sel.Succs) < 2 {
		t.Errorf("select head has %d successors, want one per comm clause (2)", len(sel.Succs))
	}
	if len(g.Exit.Preds) == 0 {
		t.Error("select does not rejoin and reach the exit")
	}
}

func TestCFGReversePostorder(t *testing.T) {
	g := buildTestCFG(t, `x := 0
if x > 0 {
	x = 1
}
for i := 0; i < x; i++ {
	x--
}
_ = x`)
	rpo := g.ReversePostorder()
	if len(rpo) == 0 || rpo[0] != g.Entry {
		t.Fatal("reverse postorder must start at the entry block")
	}
	seen := make(map[*Block]bool)
	for _, b := range rpo {
		if seen[b] {
			t.Fatalf("block %d appears twice in reverse postorder", b.Index)
		}
		seen[b] = true
	}
	if want := len(reachableFrom(g.Entry)); len(rpo) != want {
		t.Errorf("reverse postorder has %d blocks, reachable set has %d", len(rpo), want)
	}
	// Only a loop's back edge may go backward: its target leads to its
	// source again.
	pos := make(map[*Block]int)
	for i, b := range rpo {
		pos[b] = i
	}
	backward := 0
	for _, b := range rpo {
		for _, s := range b.Succs {
			if pos[s] > pos[b] {
				continue
			}
			backward++
			if !reaches(s, b) {
				t.Errorf("non-loop edge %d -> %d goes backward in reverse postorder", b.Index, s.Index)
			}
		}
	}
	if backward != 1 {
		t.Errorf("%d backward edges in reverse postorder, want the for loop's one", backward)
	}
}

// TestForwardMayJoin pins the dataflow engine on a diamond: a fact
// opened before the branch and closed on only one side must survive to
// the exit (may-analysis union join).
func TestForwardMayJoin(t *testing.T) {
	g := buildTestCFG(t, `open()
if cond() {
	close()
}
after()`)
	isCall := func(n ast.Node, name string) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
	transfer := func(blk *Block, in Facts) Facts {
		for _, n := range blk.Nodes {
			if isCall(n, "open") {
				in["res"] = n.Pos()
			}
			if isCall(n, "close") {
				delete(in, "res")
			}
		}
		return in
	}
	res := ForwardMay(g, transfer)
	if _, open := res.AtExit["res"]; !open {
		t.Error("fact closed on only one branch must still be open at exit under may semantics")
	}

	// Closing on both sides kills the fact.
	g2 := buildTestCFG(t, `open()
if cond() {
	close()
} else {
	close()
}
after()`)
	res2 := ForwardMay(g2, transfer)
	if _, open := res2.AtExit["res"]; open {
		t.Error("fact closed on every branch must be closed at exit")
	}
}
