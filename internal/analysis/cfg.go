package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the basic-block control-flow graph underlying the
// flow-aware analyzers (hotalloc, purity and memokey: anything that needs
// to reason about *paths* through a function rather than its syntax
// tree). The graph is built from the AST alone — no SSA, no go/types —
// which keeps it cheap enough to construct on demand for every function
// the call graph reaches.
//
// It models the control flow this repository writes: if, for, range,
// switch and type switch, unlabeled break and continue, return, and panic.
// goto, labeled statements (and so labeled break/continue), select and
// fallthrough appear in no non-test file, so they are not modeled. A body
// that contains one is marked Unmodeled and gets a conservative one-block
// graph instead of a silently wrong one; the analyzers that build it
// report the construct as a "lint" finding (ProgramPass.flowGraph).
//
// Blocks hold the function's "simple" statements plus the header
// expressions of control statements (an if condition, a switch tag, a
// range operand), so every expression of the body appears in exactly one
// block and a per-block scan visits each allocation site once. Function
// literals are NOT inlined: a FuncLit appears as a node of the block
// that creates it, and its body belongs to the closure's own CFG.
//
// The one flow fact the analyzers currently consume is panic-doom: a
// block from which every path ends in a panic (or an unconditional
// runtime abort) can never reach the function's exit, so work done there
// — formatting a panic message with fmt.Sprintf, building an error value
// — happens at most once per simulation lifetime and is exempt from
// hot-path allocation discipline.

// A Block is one basic block: a maximal run of nodes with a single entry
// and a single exit point.
type Block struct {
	Index int
	// Nodes are the block's statements and control-header expressions in
	// source order. Nested control flow is NOT included: the bodies of an
	// if/for/switch live in their own blocks.
	Nodes []ast.Node
	// Succs are the possible successor blocks. A block ending in return
	// or panic has none.
	Succs []*Block

	reachesExit bool
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Unmodeled is the first goto, labeled statement, select or
	// fallthrough of the body (outside function literals), nil when the
	// graph models every construct. When it is set the graph is a single
	// entry block holding the whole body and reaching the exit: nothing is
	// exempted as doomed, and every node is still scanned once.
	Unmodeled ast.Node
}

// ReachesExit reports whether any path from the block reaches the
// function's exit (a return statement or falling off the end of the
// body). Blocks for which it is false are doomed: every path out of them
// panics, so their nodes run at most once before the process dies.
func (g *CFG) ReachesExit(b *Block) bool { return b.reachesExit }

// BuildCFG constructs the control-flow graph of a function body. A nil
// body (a declaration without a Go implementation) yields a graph with a
// single empty entry block.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}}
	b.g.Entry = b.newBlock()
	b.cur = b.g.Entry
	if body != nil {
		if b.g.Unmodeled = unmodeled(body); b.g.Unmodeled != nil {
			b.add(body)
			b.g.Entry.reachesExit = true
			return b.g
		}
		b.stmtList(body.List)
	}
	// The block control falls out of is the implicit return.
	b.exits = append(b.exits, b.cur)
	b.markExitReachability()
	return b.g
}

// unmodeled returns the first construct of body that the graph does not
// model, skipping function literals (their bodies get their own graphs).
func unmodeled(body *ast.BlockStmt) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt, *ast.SelectStmt:
			found = n
		case *ast.BranchStmt:
			if n.Tok == token.GOTO || n.Tok == token.FALLTHROUGH {
				found = n
			}
		}
		return found == nil
	})
	return found
}

// unmodeledName names an Unmodeled construct for findings.
func unmodeledName(n ast.Node) string {
	switch n := n.(type) {
	case *ast.LabeledStmt:
		return "labeled statement"
	case *ast.SelectStmt:
		return "select statement"
	case *ast.BranchStmt:
		return n.Tok.String() + " statement"
	}
	return "statement"
}

// branchTarget is one enclosing breakable/continuable construct.
type branchTarget struct {
	brk, cont *Block // cont is nil for a switch
}

type cfgBuilder struct {
	g       *CFG
	cur     *Block
	targets []branchTarget
	exits   []*Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// terminate ends the current block with no fallthrough successor and
// starts a fresh (unreachable until targeted) block.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) push(t branchTarget) { b.targets = append(b.targets, t) }
func (b *cfgBuilder) pop()                { b.targets = b.targets[:len(b.targets)-1] }

// findBreak returns the exit of the innermost loop or switch.
func (b *cfgBuilder) findBreak() *Block {
	if len(b.targets) == 0 {
		return nil
	}
	return b.targets[len(b.targets)-1].brk
}

// findContinue returns the continue target of the innermost loop.
func (b *cfgBuilder) findContinue() *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		if t := b.targets[i]; t.cont != nil {
			return t.cont
		}
	}
	return nil
}

// isPanicCall reports whether the expression is a call of the predeclared
// panic (by name — shadowing panic would be perverse enough to ignore).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		join := b.newBlock()
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.edge(thenEnd, join)
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		exit := b.newBlock()
		if s.Cond != nil {
			b.edge(head, exit)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.push(branchTarget{brk: exit, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		b.pop()
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s.X)
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.push(branchTarget{brk: exit, cont: head})
		b.cur = body
		b.stmt(s.Body)
		b.pop()
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, false)

	case *ast.ReturnStmt:
		b.add(s)
		b.exits = append(b.exits, b.cur)
		b.terminate()

	case *ast.BranchStmt:
		// Only unlabeled break and continue get here (see unmodeled).
		t := b.findBreak()
		if s.Tok == token.CONTINUE {
			t = b.findContinue()
		}
		if t != nil {
			b.edge(b.cur, t)
		}
		b.terminate()

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.terminate() // doomed: no successors
		}

	default:
		// Assignments, declarations, sends, inc/dec, defer, go, empty.
		b.add(s)
	}
}

// switchClauses wires the clause blocks of a switch or type switch:
// every clause body is entered from the current (header) block and ends
// at a shared exit. caseExprs adds an expression switch's case
// expressions to their clause's block (a type switch's case types are
// not expressions).
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, caseExprs bool) {
	head := b.cur
	exit := b.newBlock()
	hasDefault := false
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		if caseExprs {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		}
		b.push(branchTarget{brk: exit})
		b.cur = blk
		b.stmtList(cc.Body)
		b.pop()
		b.edge(b.cur, exit)
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	b.cur = exit
}

// markExitReachability runs a reverse BFS from the exit blocks, setting
// reachesExit on every block with a panic-free path out.
func (b *cfgBuilder) markExitReachability() {
	preds := make([][]*Block, len(b.g.Blocks))
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
	}
	var queue []*Block
	for _, e := range b.exits {
		if !e.reachesExit {
			e.reachesExit = true
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		for _, p := range preds[blk.Index] {
			if !p.reachesExit {
				p.reachesExit = true
				queue = append(queue, p)
			}
		}
	}
}
