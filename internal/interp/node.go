package interp

// node is one lowered operation. Its behaviour is a plain function —
// exactly one of f, i, b and s, by what the operation yields — that
// reads everything it needs from the node's own fields, so the common
// kinds need no closure object: a plan's nodes, statement lists and
// list headers are carved out of page-sized chunks instead of being
// allocated one by one. Where the hot data of a loop body lands then
// depends only on the order the plan was lowered in, not on which free
// slots the process's heap happened to have: the evaluator's speed is
// sensitive to that (a load whose address matches an in-flight store
// in the low twelve bits waits for it, and every call stores to the
// stack), and one plan ran up to 15 % slower in one process than in the
// next while each expression was a separately allocated closure.
//
// Rare kinds (intrinsics, user calls, IF blocks, PRINT, …) stay
// closures, held in cl behind a node whose function calls them.
type node struct {
	f func(*node, *Env) float64
	i func(*node, *Env) int64
	b func(*node, *Env) bool
	s func(*node, *Env) ctrl

	// x and y are the operands; an assignment's right-hand side is x.
	x, y *node

	// slot is the scalar read or written, or the array referenced.
	slot int
	// A constant-layout array reference whose subscripts read one or
	// two scalar slots: the element is base + mem[v0]·m0 (+ mem[v1]·m1),
	// checked against size.
	size   uint64
	base   int64
	v0, v1 int
	m0, m1 int64

	k float64 // a REAL literal
	n int64   // an INTEGER literal, a LOGICAL literal, a GOTO target
	c cost    // an assignment's charge

	r  *ref  // an array reference: the general path and failure reports
	l  *loop // a DO statement
	cl any   // a rare kind's closure, of the type its function expects
}

// The four handle types say what a node yields. A zero handle stands
// for an absent optional part (a DO step, a dimension's lower bound).
type (
	fexpr  struct{ *node }
	iexpr  struct{ *node }
	bexpr  struct{ *node }
	stmtFn struct{ *node }
)

func (e fexpr) eval(env *Env) float64 { return e.f(e.node, env) }
func (e iexpr) eval(env *Env) int64   { return e.i(e.node, env) }
func (e bexpr) eval(env *Env) bool    { return e.b(e.node, env) }
func (e stmtFn) exec(env *Env) ctrl   { return e.s(e.node, env) }

// chunk is the unit lowered plans grow by. It fills the allocator's
// 4096-byte size class, whose slots start on 4096-byte boundaries, so
// the offset of a node within its page — what store-to-load aliasing
// and L1 set conflicts key on — follows from lowering order alone.
type chunk struct {
	nodes  [chunkNodes]node
	blocks [chunkBlocks]block
	runs   [chunkRuns]stmtFn
}

// The counts make a chunk 4080 bytes on 64-bit targets: with the
// allocator's 8-byte header, more than the 3456-byte class holds and no
// more than 4096. TestChunkPlacement holds them to that.
const (
	chunkNodes  = 19
	chunkBlocks = 8
	chunkRuns   = 60
)

// grow starts a fresh chunk; what was left of the old one stays unused.
// Callers hold lw.mu.
func (lw *Lowered) grow() {
	lw.cur, lw.nNodes, lw.nBlocks, lw.nRuns = new(chunk), 0, 0, 0
}

// newNode returns a zeroed node. Loop bodies lower on first execution,
// possibly from several ranks at once, hence the lock.
func (lw *Lowered) newNode() *node {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.cur == nil || lw.nNodes == chunkNodes {
		lw.grow()
	}
	n := &lw.cur.nodes[lw.nNodes]
	lw.nNodes++
	return n
}

// newBlock returns an empty block with room for n statements.
func (lw *Lowered) newBlock(n int) *block {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.cur == nil || lw.nBlocks == chunkBlocks || (n <= chunkRuns && lw.nRuns+n > chunkRuns) {
		lw.grow()
	}
	b := &lw.cur.blocks[lw.nBlocks]
	lw.nBlocks++
	if n > chunkRuns {
		b.run = make([]stmtFn, n)
	} else {
		b.run = lw.cur.runs[lw.nRuns : lw.nRuns+n : lw.nRuns+n]
		lw.nRuns += n
	}
	return b
}

// Rare kinds: the closure is the operation.

func (lw *Lowered) fn(cl func(*Env) float64) fexpr {
	n := lw.newNode()
	n.f, n.cl = callF, cl
	return fexpr{n}
}

func (lw *Lowered) in(cl func(*Env) int64) iexpr {
	n := lw.newNode()
	n.i, n.cl = callI, cl
	return iexpr{n}
}

func (lw *Lowered) bn(cl func(*Env) bool) bexpr {
	n := lw.newNode()
	n.b, n.cl = callB, cl
	return bexpr{n}
}

func (lw *Lowered) st(cl func(*Env) ctrl) stmtFn {
	n := lw.newNode()
	n.s, n.cl = callS, cl
	return stmtFn{n}
}

func callF(n *node, env *Env) float64 { return n.cl.(func(*Env) float64)(env) }
func callI(n *node, env *Env) int64   { return n.cl.(func(*Env) int64)(env) }
func callB(n *node, env *Env) bool    { return n.cl.(func(*Env) bool)(env) }
func callS(n *node, env *Env) ctrl    { return n.cl.(func(*Env) ctrl)(env) }
