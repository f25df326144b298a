package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the flow layer of the analysis framework: an
// intraprocedural control-flow graph built directly over go/ast, with
// no golang.org/x/tools dependency. The CFG is deliberately small —
// straight-line statements share a block, and only control transfers
// (if/for/range/switch/select, return, break/continue/goto/fallthrough,
// panic) introduce edges — but it is precise about the constructs
// lockguard, its one client, cares about:
//
//   - branch and loop edges, including labeled break and continue;
//   - a single synthetic normal Exit reached by returns and by falling
//     off the end of the body;
//   - a separate PanicExit reached by panic(...) calls, so analyzers
//     can choose to check "on all normal paths" without flagging code
//     after a deliberate panic (the documented soundness trade-off:
//     resources leaked only on panic paths are not reported — in this
//     codebase a panic is a crash, and deferred cleanup still runs);
//   - defer statements appear as ordinary nodes in their block;
//     lockguard models "defer mu.Unlock()" as releasing mu at the point
//     the defer executes, which is sound for must-release properties
//     because the deferred call runs on every exit of any path that
//     executed the defer.
//
// Blocks list their nodes in execution order. Condition expressions of
// if/for/switch appear as nodes of the block that evaluates them, so a
// transfer function sees every expression that runs.

// Block is one basic block of a FuncCFG.
type Block struct {
	Index int        // position in FuncCFG.Blocks, stable across builds
	Nodes []ast.Node // statements and control expressions, in order
	Succs []*Block
	Preds []*Block
}

// addSucc wires b -> s once.
func (b *Block) addSucc(s *Block) {
	if b == nil || s == nil {
		return
	}
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// FuncCFG is the control-flow graph of one function body (a FuncDecl's
// or FuncLit's). Nested function literals are opaque values: their
// bodies get their own FuncCFG via BuildCFG, not edges in the parent's.
type FuncCFG struct {
	Entry     *Block
	Exit      *Block // normal exit: returns and falling off the end
	PanicExit *Block // abnormal exit: panic(...) statements
	Blocks    []*Block
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	g   *FuncCFG
	cur *Block // nil after an unconditional transfer (dead code)

	// break/continue resolution: innermost-first stacks of enclosing
	// targets, each optionally labeled.
	breaks    []branchTarget
	continues []branchTarget

	// goto resolution: label -> block starting at the labeled statement.
	labels map[string]*Block
	// gotos seen before their label: label -> source blocks to patch.
	pendingGotos map[string][]*Block
}

// branchTarget is one enclosing break or continue destination.
type branchTarget struct {
	label string // "" for unlabeled loops/switches
	block *Block
}

// BuildCFG constructs the CFG of a function body. A nil body (a
// declaration without implementation) yields a trivial entry==exit
// graph.
func BuildCFG(body *ast.BlockStmt) *FuncCFG {
	g := &FuncCFG{}
	b := &cfgBuilder{
		g:            g,
		labels:       make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.PanicExit = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body reaches the normal exit.
	if b.cur != nil {
		b.cur.addSucc(g.Exit)
	}
	// Unresolved gotos (label declared later in a branch never built —
	// cannot happen in type-checked code, but stay robust): route to exit.
	for _, srcs := range b.pendingGotos {
		for _, src := range srcs {
			src.addSucc(g.Exit)
		}
	}
	return g
}

// newBlock appends a fresh block to the graph.
func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// emit records a node in the current block (no-op in dead code).
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// startBlock makes blk current, linking it from the previous current
// block when control can fall through.
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		b.cur.addSucc(blk)
	}
	b.cur = blk
}

// stmtList lowers a statement sequence.
func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the name of the LabeledStmt
// directly wrapping s ("" when unlabeled), used to register labeled
// break/continue targets on loops and switches.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		// The labeled statement starts its own block so goto can target it.
		blk := b.newBlock()
		b.startBlock(blk)
		b.labels[s.Label.Name] = blk
		for _, src := range b.pendingGotos[s.Label.Name] {
			src.addSucc(blk)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.emit(s.Cond)
		condBlk := b.cur
		after := b.newBlock()

		thenBlk := b.newBlock()
		condBlk.addSucc(thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body, "")
		if b.cur != nil {
			b.cur.addSucc(after)
		}

		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.addSucc(elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.cur.addSucc(after)
			}
		} else if condBlk != nil {
			condBlk.addSucc(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.emit(s.Cond)
		}
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		if s.Cond != nil {
			head.addSucc(after) // condition false
		}
		body := b.newBlock()
		head.addSucc(body)
		b.pushLoop(label, after, post)
		b.cur = body
		b.stmt(s.Body, "")
		b.popLoop()
		if s.Post != nil {
			if b.cur != nil {
				b.cur.addSucc(post)
			}
			b.cur = post
			b.stmt(s.Post, "")
			if b.cur != nil {
				b.cur.addSucc(head)
			}
		} else if b.cur != nil {
			b.cur.addSucc(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		b.emit(s.X)
		head := b.newBlock()
		b.startBlock(head)
		if s.Key != nil {
			b.emit(s.Key)
		}
		if s.Value != nil {
			b.emit(s.Value)
		}
		after := b.newBlock()
		head.addSucc(after) // range exhausted
		body := b.newBlock()
		head.addSucc(body)
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmt(s.Body, "")
		b.popLoop()
		if b.cur != nil {
			b.cur.addSucc(head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.switchBody(s.Body, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.emit(s.Assign)
		b.switchBody(s.Body, label, false)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case *ast.ReturnStmt:
		b.emit(s)
		if b.cur != nil {
			b.cur.addSucc(b.g.Exit)
		}
		b.cur = nil

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			if b.cur != nil {
				b.cur.addSucc(b.g.PanicExit)
			}
			b.cur = nil
		}

	default:
		// Assignments, declarations, sends, go/defer, inc/dec, empty:
		// straight-line nodes.
		b.emit(s)
	}
}

// switchBody lowers the clause list shared by expression and type
// switches. fallthroughOK enables fallthrough edges (expression
// switches only; the parser rejects it elsewhere anyway).
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, fallthroughOK bool) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: after})

	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		head.addSucc(blk)
		if cc.List == nil {
			hasDefault = true
		}
		clauseBlocks = append(clauseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault && head != nil {
		head.addSucc(after) // no case matched
	}
	for i, cc := range clauses {
		b.cur = clauseBlocks[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		fellThrough := false
		for _, cs := range cc.Body {
			if bs, ok := cs.(*ast.BranchStmt); ok && bs.Tok == token.FALLTHROUGH && fallthroughOK {
				if b.cur != nil && i+1 < len(clauseBlocks) {
					b.cur.addSucc(clauseBlocks[i+1])
				}
				fellThrough = true
				b.cur = nil
				continue
			}
			b.stmt(cs, "")
		}
		if b.cur != nil && !fellThrough {
			b.cur.addSucc(after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// selectStmt lowers a select: every comm clause is a branch from the
// select head; a select without a default blocks, but the CFG shape is
// the same either way (blocking-ness is the analyzers' concern).
func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	b.emit(s) // the select itself is visible to transfer functions
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		if head != nil {
			head.addSucc(blk)
		}
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm, "")
		}
		for _, inner := range cc.Body {
			b.stmt(inner, "")
		}
		if b.cur != nil {
			b.cur.addSucc(after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// branchStmt lowers break/continue/goto (fallthrough is handled inside
// switchBody).
func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.emit(s)
	if b.cur == nil {
		return
	}
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breaks, label); t != nil {
			b.cur.addSucc(t)
		} else {
			b.cur.addSucc(b.g.Exit)
		}
	case token.CONTINUE:
		if t := findTarget(b.continues, label); t != nil {
			b.cur.addSucc(t)
		} else {
			b.cur.addSucc(b.g.Exit)
		}
	case token.GOTO:
		if t, ok := b.labels[label]; ok {
			b.cur.addSucc(t)
		} else {
			b.pendingGotos[label] = append(b.pendingGotos[label], b.cur)
		}
	}
	b.cur = nil
}

// pushLoop registers a loop's break and continue targets.
func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
	b.continues = append(b.continues, branchTarget{label: label, block: cont})
}

// popLoop unregisters the innermost loop.
func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a break/continue label against a target stack:
// unlabeled picks the innermost, labeled the matching frame.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// isPanicCall reports whether the expression is a direct call to the
// panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the iteration order under which a forward dataflow pass
// over a reducible graph converges in few sweeps.
func (g *FuncCFG) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
