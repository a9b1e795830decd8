// Package ctree implements the completed-problem table of the paper's
// fault-tolerance mechanism (§5.3.2) together with its three derived
// operations:
//
//   - contraction: the recursive replacement of pairs of sibling codes with
//     the code of their parent, and the deletion of codes whose ancestors are
//     also present, which keeps tables and work reports small;
//   - complement: the minimal list of codes covering every tree node *not*
//     known to be completed, which is how a process picks lost work to redo;
//   - termination detection (§5.4): successive contractions reaching the code
//     of the root problem prove that every expanded problem was completed.
//
// The table assumes deterministic decomposition: every processor that
// branches a given subproblem branches it on the same condition variable.
// This holds for the paper's "basic tree"-driven execution, where the
// decompose operator is recorded in the tree itself.
//
// The implementation is the protocol's hot path — every completion, report
// flush, table gossip, and wire-size query goes through it — so it is tuned
// to be O(depth) per insert and allocation-lean (DESIGN.md "Completion-table
// hot path"): the trie's vertices are 16 pointer-free bytes each in one arena
// slice per table and name each other by index, so the collector never scans
// a trie, Clone is one slice copy, and pruned vertices go onto a free list
// (indices again) that later inserts pop instead of growing the arena; the
// subtree digests only diff gossip reads live in a side array the table
// allocates on the first digest request; Insert keeps an explicit path stack
// so contraction walks bottom-up without re-walking from the root per level;
// the frontier's size and decision count, and the encoded trie's size, are
// sums kept along the mutation path, so Len and EncodedSize are field reads.
//
// Every set of codes the protocol ships — a table push, a work report, a
// digest report's delta, a leaf subtree reply — travels as a trie, never as a
// code list. Snapshot freezes a table with one copy of its arena, cached until
// the next mutation (a table with more free vertices than live ones compacts
// first), and Subtree copies out the part below one code; Merge folds one
// table into another — MergeAt into the part below a code — by a lockstep
// walk of the two tries that skips every subtree the receiver already holds
// complete, marks complete wherever the other is, grafts wherever the receiver
// has no vertex and contracts on the way back up. On the wire it is the trie
// again: Encode writes the vertices in pre-order, two bits of shape each and
// the branching variable of each inner one, and Decode lays them out as a
// compact depth-first arena, sums included, so a receiver rebuilds the
// sender's exact trie and merges it as it would the snapshot itself. Merge
// only reads its argument, and Encode, Codes and Len write nothing into their
// table, so one snapshot serves every peer it is sent to, from any goroutine.
// The reference implementation the optimizations are property-tested against
// lives in reference_test.go.
package ctree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"gossipbnb/internal/code"
)

// node is one vertex of the completion trie. Its position in the trie is the
// code of the corresponding B&B tree node. Vertices live in the table's arena
// and name each other by index, so a vertex holds no pointer and the collector
// never scans a trie. The root is index 0 and is nobody's child, so a child
// index of 0 means "no child on this branch"; free-listed vertices are
// threaded through children[0] the same way (0 ends the list). 16 bytes: the
// subtree digest lives in the table's side array (digest.go), and the wire
// bytes of the edge from the parent are recomputed from the parent's
// branchVar where they are needed (newChild, prune).
type node struct {
	children [2]uint32

	branchVar uint32 // condition variable the children branch on

	// meta packs the length of the vertex's own code — fixed when the vertex
	// is created, so completing or pruning it adjusts the table's sums without
	// knowing the path that led here — above two bits: metaComplete, and
	// metaDigestOK, the validity bit of the vertex's cached digest, cleared
	// along the mutation path.
	meta uint32
}

const (
	metaComplete = 1 << iota
	metaDigestOK
	metaDepthShift = iota

	// maxDepth is the deepest code a table accepts: Insert, Decode and MergeAt
	// refuse a longer one with ErrDepth, and Merge cannot meet one, since its
	// argument is a table too. The depth field has room for 2^30-1 levels;
	// the limit sits lower, where the recursive walks (Merge, its grafts,
	// digests) stay far inside the goroutine stack cap.
	maxDepth = 1 << 20
)

// ErrDepth reports a code deeper than a table holds (maxDepth).
var ErrDepth = fmt.Errorf("ctree: code deeper than %d decisions", maxDepth)

func (n *node) complete() bool { return n.meta&metaComplete != 0 }
func (n *node) depth() uint32  { return n.meta >> metaDepthShift }

// leaf reports that nothing was ever recorded below n.
func (n *node) leaf() bool { return n.children[0]|n.children[1] == 0 }

// gaps is the number of complement regions an incomplete n stands for: the
// branch nothing was recorded on, or — a leaf, which in a settled table is
// only the root of an empty one — the vertex's whole subproblem.
func (n *node) gaps() int32 {
	if n.children[0] != 0 && n.children[1] != 0 {
		return 0
	}
	return 1
}

// Table is a contracted set of completed-problem codes. The zero value is not
// usable; call New. Table is not safe for concurrent use: each table belongs
// to one protocol core, and a core is confined to one goroutine (a simulator
// process or a live node's loop). A snapshot is the exception: it is never
// mutated, and the methods Snapshot lists may read it from any goroutine.
type Table struct {
	// nodes is the vertex arena: nodes[0] is the root, every other live
	// vertex is reachable from it through children, and the rest are on the
	// free list. It starts at one vertex and grows by append, so a pointer
	// into it (&t.nodes[i]) dies at the next newChild; code that creates
	// vertices holds indices and re-takes the pointer.
	nodes []node

	// digests is the side array of cached subtree digests, digests[i] for
	// nodes[i], valid where the vertex's metaDigestOK bit is set. It stays
	// empty until something asks the table for a digest — outboxes and
	// frontier-gossip tables never do — and while it is empty no vertex
	// holds a valid digest, so inserts need not clear the bits along their
	// path. The digest entry points grow it to the arena's length before
	// they walk (growDigests).
	digests []uint64

	// free is the head of the vertex free list, threaded through
	// children[0]; 0 means empty. prune feeds it; newChild pops it.
	free uint32

	// gaps counts the regions of the complement — the incomplete vertices that
	// lack a child (node.gaps) — kept where the trie changes, like the frontier
	// sums below, so a recovery plan knows how much is missing before it walks.
	// (32 bits beside free: a wider Table leaves its allocation size class.)
	gaps int32

	// nodeCount is the live trie vertices, for storage accounting, the
	// snapshot's compaction rule and the encoding's vertex count.
	nodeCount int32

	// Sums over the frontier, kept where the trie changes. codes and depthSum
	// count the complete vertices and the decisions of their codes (tally).
	// Len reads the first; Codes sizes its chunks by both.
	//
	// varSum is the encoding's variable bytes: the uvarint length of the
	// branching variable of every inner vertex (one with a child). newChild
	// adds it when a leaf gets its first child, prune takes it back when a
	// vertex loses them. EncodedSize reads it.
	//
	// (codes and varSum are 32 bits beside nodeCount: a wider Table leaves its
	// allocation size class. A vertex adds at most five bytes to varSum, so it
	// overflows only past 400 M vertices, a 6.4 GB arena.)
	codes    int32
	varSum   int32
	depthSum int

	// snap caches Snapshot() output; nil means not taken. Any mutation that
	// changes the frontier drops it, never touching the snapshot itself —
	// messages in flight still hold it. A snapshot's snap is itself.
	snap *Table

	// Reused scratch space. path holds the root-to-leaf vertex stack of the
	// last insert (path[i] = index of the vertex at depth i); scratch is the
	// complement walk's prefix; frames and nstack are the iterative-walk
	// stacks of Complement and of the pruning, counting and snapshot walks.
	// sortBuf is InsertAll's out-of-order fallback only: the sorted copy of
	// the part of a batch that broke prefix order. It is cleared when the
	// fallback returns, so it never keeps a received batch's chunks alive.
	// The frontier walks (Codes, Encode) keep their stacks on the goroutine
	// stack instead, so they write nothing here.
	path    []uint32
	scratch code.Code
	frames  []walkFrame
	nstack  []uint32
	sortBuf []code.Code
}

// walkFrame is one level of an iterative depth-first walk: the vertex and the
// next branch to visit (0, 1, or 2 = exhausted).
type walkFrame struct {
	n uint32
	b int8
}

// frontierFrame is one vertex the frontier walk has yet to visit, with the
// decision that leads to it from its parent.
type frontierFrame struct {
	n   uint32
	via code.Decision
}

// New returns an empty table: nothing is known to be completed. The arena
// holds the root alone — most tables of a big run (10 000 idle processes, two
// tables each) never grow past a handful of vertices, and reserving more up
// front is paid by every one of them.
func New() *Table {
	return &Table{nodes: make([]node, 1), nodeCount: 1, gaps: 1}
}

// Reset empties the table in place, recycling every trie vertex through the
// free list so the next inserts allocate nothing. The protocol core resets
// its report outbox on every flush instead of allocating a fresh table.
func (t *Table) Reset() {
	t.prune(0)
	t.nodes[0] = node{}
	t.codes, t.varSum, t.depthSum, t.gaps = 0, 0, 0, 1
	t.digests = t.digests[:0] // every vertex was just zeroed; keep the capacity
	t.invalidate()
}

// invalidate drops the cached snapshot after a mutation. The snapshot is
// abandoned, not reused: messages in flight may still hold it.
func (t *Table) invalidate() { t.snap = nil }

// newChild pops a recycled vertex off the free list, or grows the arena by
// one, links it as the child of vertex p on branch b of p's branchVar, and
// returns its index. Growing may move the arena: every *node taken before the
// call is stale.
func (t *Table) newChild(p uint32, b uint8) uint32 {
	i := t.free
	if i == 0 {
		i = uint32(len(t.nodes))
		t.nodes = append(t.nodes, node{})
	} else {
		t.free = t.nodes[i].children[0]
	}
	parent := &t.nodes[p]
	if parent.leaf() {
		t.gaps++ // the new leaf's; under a one-child parent it takes over the parent's
		t.varSum += varBytes(parent.branchVar)
	}
	t.nodes[i] = node{meta: (parent.depth() + 1) << metaDepthShift}
	t.nodeCount++
	parent.children[b] = i
	return i
}

// varBytes is the encoded size of an inner vertex branching on variable v.
func varBytes(v uint32) int32 { return int32(code.UvarintLen(uint64(v))) }

// tally adds (sign +1) or removes (sign -1) a complete vertex's code from the
// frontier sums.
func (t *Table) tally(n *node, sign int) {
	t.codes += int32(sign)
	t.depthSum += sign * int(n.depth())
}

// VarMismatchError reports an Insert whose code branches a subproblem on a
// different condition variable than a previously inserted code — impossible
// under deterministic decomposition, so it indicates a corrupt or forged
// report.
type VarMismatchError struct {
	Code  code.Code
	Depth int
	Want  uint32
	Got   uint32
}

func (e *VarMismatchError) Error() string {
	return fmt.Sprintf("ctree: code %v branches on x%d at depth %d, table has x%d",
		e.Code, e.Got, e.Depth, e.Want)
}

// Insert records that the subproblem encoded by c has been completed, then
// contracts. It returns true if the table changed (false when c was already
// subsumed by a completed ancestor or an identical entry).
func (t *Table) Insert(c code.Code) (bool, error) {
	ok, _, err := t.insertFrom(c, 0)
	return ok, err
}

// insertFrom is Insert starting at depth from, reusing t.path[:from+1] — the
// vertices a previous insertFrom walked for a code sharing this prefix. The
// caller guarantees every reused vertex is live and incomplete (see
// InsertAll). It returns the number of path entries that remain valid for the
// next prefix-sharing insert: vertices at depths < valid are live and
// incomplete; the vertex at depth valid (if walked) may be complete.
//
// The single path stack is what makes contraction O(depth): the old
// implementation re-walked from the root for every level it contracted,
// paying O(depth²) per insert.
func (t *Table) insertFrom(c code.Code, from int) (changed bool, valid int, err error) {
	if len(c) > maxDepth {
		return false, from, ErrDepth
	}
	if from == 0 {
		t.path = append(t.path[:0], 0)
	} else {
		t.path = t.path[:from+1]
	}
	at := t.path[from]
	for depth := from; depth < len(c); depth++ {
		d := c[depth]
		n := &t.nodes[at]
		if n.complete() {
			return false, depth, nil // an ancestor is complete: c is subsumed
		}
		if n.leaf() {
			n.branchVar = d.Var
		} else if n.branchVar != d.Var {
			return false, depth, &VarMismatchError{Code: c, Depth: depth, Want: n.branchVar, Got: d.Var}
		}
		b := d.Branch & 1
		next := n.children[b]
		if next == 0 {
			next = t.newChild(at, b) // n may be stale now: the arena may have moved
		}
		at = next
		t.path = append(t.path, at)
	}
	n := &t.nodes[at] // no vertex is created from here on
	if n.complete() {
		return false, len(c), nil
	}
	n.meta |= metaComplete
	t.tally(n, +1)
	t.prune(at)
	// Contract bottom-up along the recorded path, replacing complete sibling
	// pairs with their parent. Vertices below the shallowest completed depth
	// are recycled, so only path[:valid+1] survives for prefix reuse.
	valid = len(c)
	for i := len(c) - 1; i >= 0; i-- {
		p := &t.nodes[t.path[i]]
		if p.children[0] == 0 || p.children[1] == 0 ||
			!t.nodes[p.children[0]].complete() || !t.nodes[p.children[1]].complete() {
			break // cannot contract further
		}
		p.meta |= metaComplete
		t.tally(p, +1)
		t.prune(t.path[i])
		valid = i
	}
	// Every vertex on the walked path now roots a changed subtree, so their
	// cached digests are stale. Vertices recycled by the contraction above
	// were zeroed by prune; re-clearing them is harmless. Nothing off the
	// path changed, so nothing else needs touching — this is the same
	// invalidation discipline as the snapshot cache, pushed down to vertices.
	if len(t.digests) > 0 {
		for _, v := range t.path {
			t.nodes[v].meta &^= metaDigestOK
		}
	}
	t.invalidate()
	return true, valid, nil
}

// prune recycles the subtrees below a vertex that just became complete; its
// descendants carry no extra information, and the codes of the complete ones
// leave the frontier sums, the variables of the vertex and its inner
// descendants leave the encoding's, and whatever the vertex and its incomplete
// descendants lacked leaves the complement. The walk
// is iterative and feeds the free list, so a prune is allocation-free and
// later inserts reuse the vertices.
func (t *Table) prune(at uint32) {
	n := &t.nodes[at]
	t.gaps -= n.gaps()
	t.nstack = t.nstack[:0]
	t.pushChildren(n)
	n.children = [2]uint32{}
	for len(t.nstack) > 0 {
		i := t.nstack[len(t.nstack)-1]
		t.nstack = t.nstack[:len(t.nstack)-1]
		v := &t.nodes[i]
		t.pushChildren(v)
		if v.complete() {
			t.tally(v, -1)
		} else {
			t.gaps -= v.gaps()
		}
		t.nodeCount--
		*v = node{children: [2]uint32{t.free, 0}}
		t.free = i
	}
}

// pushChildren queues v's children on nstack for prune and takes v's variable
// out of the encoding's sum if it has a child.
func (t *Table) pushChildren(v *node) {
	if !v.leaf() {
		t.varSum -= varBytes(v.branchVar)
	}
	for _, c := range v.children {
		if c != 0 {
			t.nstack = append(t.nstack, c)
		}
	}
}

// Complete reports whether the root problem is known completed — the paper's
// termination condition.
func (t *Table) Complete() bool { return t.nodes[0].complete() }

// Contains reports whether the subproblem encoded by c is known completed,
// either directly or through a completed ancestor.
func (t *Table) Contains(c code.Code) bool {
	n := &t.nodes[0]
	for _, d := range c {
		if n.complete() {
			return true
		}
		next := n.children[d.Branch&1]
		if next == 0 || n.branchVar != d.Var {
			return false
		}
		n = &t.nodes[next]
	}
	return n.complete()
}

// Overlaps reports whether the table knows of any completion at, above or
// below c: c or an ancestor is complete, or the trie holds a vertex below c's
// — every leaf of a non-empty trie is complete, so that vertex leads to one.
// A region that does not overlap is one the table knows nothing about, the
// only kind recovery may re-create whole (Core.Adopt). Like Contains, a code
// that branches a vertex on another variable than the table does overlaps
// nothing.
func (t *Table) Overlaps(c code.Code) bool {
	n := &t.nodes[0]
	for _, d := range c {
		if n.complete() {
			return true
		}
		next := n.children[d.Branch&1]
		if next == 0 || n.branchVar != d.Var {
			return false
		}
		n = &t.nodes[next]
	}
	return n.complete() || !n.leaf()
}

// Covering returns the contraction of c in the table: the code of the
// shallowest completed node on c's path — the ancestor (or c itself) whose
// completion subsumes everything under it. ok is false when c is not
// contained. The result is a prefix of c and aliases its storage; callers
// must treat it as immutable.
func (t *Table) Covering(c code.Code) (code.Code, bool) {
	n := &t.nodes[0]
	for i, d := range c {
		if n.complete() {
			return c[:i:i], true
		}
		next := n.children[d.Branch&1]
		if next == 0 || n.branchVar != d.Var {
			return nil, false
		}
		n = &t.nodes[next]
	}
	if n.complete() {
		return c, true
	}
	return nil, false
}

// Codes returns the contracted frontier: the minimal set of codes whose
// completion implies everything the table knows. Order is deterministic
// (depth-first, branch 0 before branch 1). Each call materialises a fresh
// slice the caller owns. Codes writes nothing into the table, so a snapshot's
// may run concurrently.
//
// One iterative depth-first walk, branch 0 first, keeps the current vertex's
// code in a prefix buffer — each vertex knows its depth, so a popped frame
// truncates the prefix to its parent and appends its own decision — and copies
// each complete vertex's code into a pointer-free chunk, emitting a
// capacity-clipped slice of it so an append to one code cannot reach its
// neighbour. The allocations are the exact-capacity result and about one chunk
// per code.ChunkLen decisions, not one per code: sized to the whole frontier
// instead, the large-object spans of a 100-process run raised its peak RSS by a
// third (DESIGN.md "Completion-table hot path"). The walk's stack and prefix
// live on the goroutine stack (walkDepth).
//
// The emission order is exactly prefixCmp order: the children of one vertex
// share its branching variable, so branch 0 before branch 1 is decision order,
// and no frontier code is a prefix of another. InsertAll relies on it — a
// materialised frontier inserts with no sort.
func (t *Table) Codes() []code.Code {
	if t.codes == 0 {
		return nil
	}
	out := make([]code.Code, 0, t.codes)
	chunk := code.Root() // empty, not nil: a complete table yields Root(), as Clone did
	decs := t.depthSum
	var stk [walkDepth]frontierFrame
	var pfx [walkDepth]code.Decision
	stack, prefix := append(stk[:0], frontierFrame{}), pfx[:0]
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := &t.nodes[f.n]
		d := int(v.depth())
		if d > 0 {
			prefix = append(prefix[:d-1], f.via)
		}
		if v.complete() {
			if d > cap(chunk)-len(chunk) {
				chunk = make(code.Code, 0, max(d, min(decs, code.ChunkLen)))
			}
			at := len(chunk)
			chunk = append(chunk, prefix...)
			out = append(out, chunk[at:len(chunk):len(chunk)])
			decs -= d
			continue
		}
		for b := 1; b >= 0; b-- { // pushed in reverse: branch 0 pops first
			if v.children[b] != 0 {
				stack = append(stack, frontierFrame{v.children[b], code.Decision{Var: v.branchVar, Branch: uint8(b)}})
			}
		}
	}
	return out
}

// walkDepth is how deep a frontier walk's stacks go before they spill from the
// goroutine stack to the heap: deeper than any tree the experiments build.
const walkDepth = 64

// extent counts the vertices of the subtree rooted at start and whether its
// frontier holds at most max codes, stopping once it does not; a max of 0 or
// less admits anything. The anti-entropy responder uses it to choose between
// shipping a small subtree (Subtree, which sizes its copy by the count) and
// describing another level of the digest walk.
func (t *Table) extent(start uint32, max int) (vertices int, ok bool) {
	if start == 0 {
		return int(t.nodeCount), max <= 0 || int(t.codes) <= max
	}
	codes := 0
	t.nstack = append(t.nstack[:0], start)
	for len(t.nstack) > 0 {
		v := &t.nodes[t.nstack[len(t.nstack)-1]]
		t.nstack = t.nstack[:len(t.nstack)-1]
		vertices++
		if v.complete() {
			if codes++; max > 0 && codes > max {
				return vertices, false
			}
			continue
		}
		for b := 0; b < 2; b++ {
			if v.children[b] != 0 {
				t.nstack = append(t.nstack, v.children[b])
			}
		}
	}
	return vertices, true
}

// Complement returns a minimal set of codes covering every tree node not
// known completed. A process that suspects work has been lost picks entries
// of the complement and re-solves them (§5.3.2 failure recovery). If max > 0,
// at most max codes are returned, the first in walk order. An empty result
// means the table is complete. An empty *table* yields the root code: nothing
// is known, so everything must be (re)done.
func (t *Table) Complement(max int) []code.Code {
	var out []code.Code
	t.eachGap(func(c code.Code) bool {
		out = append(out, c.Clone())
		return max <= 0 || len(out) < max
	})
	return out
}

// Gaps returns the number of regions in the complement, len(Complement(0)),
// read off the running sum. It is 0 exactly when the table is complete.
func (t *Table) Gaps() int { return int(t.gaps) }

// SampleComplement returns k regions of the complement (all of them when
// k >= Gaps), every k-subset equally likely, in walk order. rnd(n) must be
// uniform on [0, n). One walk, which stops at the last region chosen, and
// only the chosen codes are copied: selection sampling (Knuth 3.4.2 S) takes
// each region with probability (still wanted)/(still to come).
func (t *Table) SampleComplement(k int, rnd func(n int) int) []code.Code {
	left := int(t.gaps)
	if k = min(k, left); k <= 0 {
		return nil
	}
	out := make([]code.Code, 0, k)
	t.eachGap(func(c code.Code) bool {
		if rnd(left) < k-len(out) {
			out = append(out, c.Clone())
		}
		left--
		return len(out) < k
	})
	return out
}

// eachGap walks the complement depth-first, branch 0 before branch 1, calling
// visit with each region's code until it returns false. The code is the shared
// walk prefix: visit must copy what it keeps.
func (t *Table) eachGap(visit func(c code.Code) bool) {
	t.scratch = t.scratch[:0]
	t.frames = append(t.frames[:0], walkFrame{})
	for len(t.frames) > 0 {
		f := &t.frames[len(t.frames)-1]
		n := &t.nodes[f.n]
		if f.b == 0 {
			if n.complete() {
				f.b = 2
			} else if n.leaf() {
				// Nothing below this node has been reported: the whole
				// subproblem is (as far as we know) outstanding.
				if !visit(t.scratch) {
					return
				}
				f.b = 2
			}
		}
		if f.b < 2 {
			b := uint8(f.b)
			f.b++
			t.scratch = t.scratch.AppendChild(n.branchVar, b)
			if n.children[b] != 0 {
				t.frames = append(t.frames, walkFrame{n: n.children[b]})
				continue
			}
			// The sibling branch was reported but this branch never was:
			// complement it (the paper's "complementing the code of a solved
			// problem whose sibling is not solved").
			if !visit(t.scratch) {
				return
			}
			t.scratch = t.scratch[:len(t.scratch)-1]
			continue
		}
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.scratch) > 0 {
			t.scratch = t.scratch[:len(t.scratch)-1]
		}
	}
}

// Merge folds every completion other knows into t and leaves t exactly as
// t.InsertAll(other.Codes()) would: changed counts the frontier codes of other
// that t did not already cover, errs those that branch a vertex of t on
// another variable. It walks the two tries in lockstep instead of the code
// list — a subtree t holds complete is skipped whole, a complete vertex of
// other completes t's, a branch t lacks is grafted vertex by vertex, and a
// vertex whose children both end up complete contracts on the way back — so
// a push of mostly known completions costs the walk down to where t is
// complete, not a path walk per code. other is only read: the snapshot a push
// carries is merged by each receiver as it stands.
func (t *Table) Merge(other *Table) (changed int, errs int) { return t.MergeAt(nil, other) }

// MergeAt is Merge for other holding the subtree below prefix, its codes
// relative to prefix (Subtree's output): t ends as if each of them had been
// inserted joined to prefix. The walk to prefix creates the vertices t lacks
// on the way, the merge runs there, and contraction climbs back along the
// walked path. If prefix is covered already nothing changes; if it branches a
// vertex on another variable than t does, or would put a code deeper than a
// table holds, every code of other is an error.
func (t *Table) MergeAt(prefix code.Code, other *Table) (changed int, errs int) {
	if other.codes == 0 {
		return 0, 0
	}
	if len(prefix) > 0 && len(prefix)+len(other.nodes) > maxDepth && len(prefix)+other.height() > maxDepth {
		return 0, int(other.codes)
	}
	t.path = append(t.path[:0], 0)
	at := uint32(0)
	for _, d := range prefix {
		n := &t.nodes[at]
		if n.complete() {
			return 0, 0
		}
		if n.leaf() {
			n.branchVar = d.Var
		} else if n.branchVar != d.Var {
			return 0, int(other.codes)
		}
		next := n.children[d.Branch&1]
		if next == 0 {
			// From here down every vertex is new, and the merge below it
			// completes something, so none is left an incomplete leaf.
			next = t.newChild(at, d.Branch&1)
		}
		at = next
		t.path = append(t.path, at)
	}
	if changed, errs = t.mergeAt(at, other, 0); changed == 0 {
		return 0, errs
	}
	for i := len(prefix) - 1; i >= 0; i-- {
		p := &t.nodes[t.path[i]]
		p.meta &^= metaDigestOK
		if !p.complete() && p.children[0] != 0 && p.children[1] != 0 &&
			t.nodes[p.children[0]].complete() && t.nodes[p.children[1]].complete() {
			t.markComplete(t.path[i])
		}
	}
	t.invalidate()
	return changed, errs
}

// height returns the depth of the deepest vertex, reading every arena slot: a
// free-listed vertex is zeroed, depth 0 included.
func (t *Table) height() int {
	h := uint32(0)
	for i := range t.nodes {
		h = max(h, t.nodes[i].depth())
	}
	return int(h)
}

// mergeAt merges the subtree of o at oi into the subtree of t at ti, the same
// position in the tree; Merge documents the counts. Recursion depth is the
// depth of o's trie.
func (t *Table) mergeAt(ti uint32, o *Table, oi uint32) (changed, errs int) {
	n, on := &t.nodes[ti], &o.nodes[oi]
	switch {
	case n.complete():
		return 0, 0
	case on.complete():
		t.markComplete(ti)
		return 1, 0
	case n.leaf():
		n.branchVar = on.branchVar // the bare root of an empty table
	case n.branchVar != on.branchVar:
		return 0, o.countFrontier(oi)
	}
	for b := uint8(0); b < 2; b++ {
		oc := on.children[b] // o is never mutated: on stays valid
		if oc == 0 {
			continue
		}
		if tc := t.nodes[ti].children[b]; tc != 0 {
			ch, er := t.mergeAt(tc, o, oc)
			changed, errs = changed+ch, errs+er
		} else {
			changed += t.graft(ti, b, o, oc)
		}
	}
	if changed == 0 {
		return 0, errs
	}
	n = &t.nodes[ti] // the grafts may have moved the arena
	n.meta &^= metaDigestOK
	if n.children[0] != 0 && n.children[1] != 0 &&
		t.nodes[n.children[0]].complete() && t.nodes[n.children[1]].complete() {
		t.markComplete(ti)
	}
	return changed, errs
}

// graft copies the subtree of o at oi under vertex p of t, on branch b, and
// returns the number of complete vertices it copied. o is contracted, so the
// copy needs no contraction of its own.
func (t *Table) graft(p uint32, b uint8, o *Table, oi uint32) (codes int) {
	on := &o.nodes[oi]
	i := t.newChild(p, b)
	if on.complete() {
		t.markComplete(i)
		return 1
	}
	t.nodes[i].branchVar = on.branchVar
	for c := uint8(0); c < 2; c++ {
		if oc := on.children[c]; oc != 0 {
			codes += t.graft(i, c, o, oc)
		}
	}
	return codes
}

// markComplete completes vertex i: its code joins the frontier sums and its
// subtree is recycled. A cached digest of i is stale; the caller clears the
// ones above it.
func (t *Table) markComplete(i uint32) {
	n := &t.nodes[i]
	n.meta = n.meta&^metaDigestOK | metaComplete
	t.tally(n, +1)
	t.prune(i)
}

// countFrontier counts the complete vertices of the subtree at i, reading
// nothing but the arena.
func (t *Table) countFrontier(i uint32) int {
	n := &t.nodes[i]
	if n.complete() {
		return 1
	}
	k := 0
	for _, c := range n.children {
		if c != 0 {
			k += t.countFrontier(c)
		}
	}
	return k
}

// InsertAll inserts each code, returning how many changed the table and how
// many failed validation. Consecutive codes in prefix order (prefixCmp) reuse
// the common-ancestor portion of the path walk, and ancestors land before the
// descendants they subsume. A batch that arrives in that order — every
// Codes output, such as a decoded report's listed codes — is walked as it
// stands: the common-prefix length each step computes anyway
// also says, with one more decision compare, whether the code follows its
// predecessor. The first code that does not sends itself and the rest of the
// batch through a sorted scratch copy (cs itself, often an in-flight message
// payload, is never reordered). The changed count of a
// batch with internal subsumption can therefore differ from inserting in the
// caller's order, but whether it is zero — the only protocol-visible property
// — cannot: changed == 0 exactly when every code was already subsumed by the
// initial table.
func (t *Table) InsertAll(cs []code.Code) (changed int, errs int) {
	var prev code.Code
	valid := 0
	for i, c := range cs {
		from := code.CommonPrefixLen(prev, c)
		if prefixCmpAt(prev, c, from) > 0 {
			// slices.SortFunc, not sort.Slice: the reflection-based sorter
			// allocates a Swapper closure per call.
			t.sortBuf = append(t.sortBuf[:0], cs[i:]...)
			slices.SortFunc(t.sortBuf, prefixCmp)
			ch, er := t.InsertAll(t.sortBuf) // sorted: cannot come back here
			clear(t.sortBuf)                 // do not pin the batch's chunks
			return changed + ch, errs + er
		}
		if from > valid {
			from = valid
		}
		ok, v, err := t.insertFrom(c, from)
		prev, valid = c, v
		if err != nil {
			errs++
			continue
		}
		if ok {
			changed++
		}
	}
	return changed, errs
}

// prefixCmp is the decision-prefix order: codes sharing a prefix are adjacent
// and every ancestor precedes its descendants — decision-wise (variable, then
// branch), ties to the shorter code.
func prefixCmp(a, b code.Code) int { return prefixCmpAt(a, b, code.CommonPrefixLen(a, b)) }

// prefixCmpAt is prefixCmp for a caller that already holds k, the length of
// the codes' common prefix: the order is decided by the first decision past it.
func prefixCmpAt(a, b code.Code, k int) int {
	if k == len(a) || k == len(b) {
		return len(a) - len(b)
	}
	if c := cmp.Compare(a[k].Var, b[k].Var); c != 0 {
		return c
	}
	return cmp.Compare(a[k].Branch, b[k].Branch)
}

// Len returns the number of frontier codes (complete trie vertices).
func (t *Table) Len() int { return int(t.codes) }

// NodeCount returns the number of trie vertices, a proxy for in-memory size.
func (t *Table) NodeCount() int { return int(t.nodeCount) }

// EncodedSize returns the number of bytes Encode produces, read off the
// running sums: what a table push or a work report weighs, and what the
// simulator reads after every mutation for the storage figures.
func (t *Table) EncodedSize() int {
	if t.codes == 0 {
		return 1
	}
	v := uint64(t.nodeCount)
	return code.UvarintLen(v) + int(v+3)/4 + int(t.varSum)
}

// Decisions returns the number of decisions the frontier's codes hold in all,
// read off the running sum: what materialising the frontier (Codes) costs.
func (t *Table) Decisions() int { return t.depthSum }

// Encode appends the wire encoding of the table to dst: the trie in
// pre-order, branch 0 first, as
//
//	uvarint(V) tags {uvarint(branchVar)}
//
// that is, the vertex count V; ⌈V/4⌉ bytes holding a 2-bit tag per vertex,
// four to a byte from the low bits up, unused high bits zero; and the
// branching variable of every inner vertex, in the same order. A tag is the vertex's
// child mask: 00 a complete leaf, 01 / 10 an inner vertex with only child 0 /
// only child 1, 11 one with both. An empty table is V = 0 and nothing else
// (its root is the one leaf that is not complete). Every leaf of a contracted
// trie is complete and no vertex has two complete children, which is what
// Decode holds an input to. The walk's stack lives on the goroutine stack, so
// Encode writes nothing into the table and a snapshot may be encoded
// concurrently.
func (t *Table) Encode(dst []byte) []byte {
	if t.codes == 0 {
		return append(dst, 0)
	}
	nv := int(t.nodeCount)
	dst = binary.AppendUvarint(dst, uint64(nv))
	at := len(dst)
	dst = append(dst, make([]byte, (nv+3)/4)...)
	var stk [walkDepth]uint32
	stack := append(stk[:0], 0)
	for k := 0; len(stack) > 0; k++ {
		v := &t.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if v.complete() {
			continue // tag 00
		}
		var tag byte
		for b := 1; b >= 0; b-- { // pushed in reverse: branch 0 pops first
			if v.children[b] != 0 {
				tag |= 1 << b
				stack = append(stack, v.children[b])
			}
		}
		dst[at+k/4] |= tag << (2 * (k % 4))
		dst = binary.AppendUvarint(dst, uint64(v.branchVar))
	}
	return dst
}

// Decode reconstructs a table from Encode output. The whole buffer must be
// one encoded table (DecodeOne): trailing bytes are rejected, so a corrupt or
// truncated-then-padded frame cannot half-decode.
func Decode(buf []byte) (*Table, error) {
	t, n, err := DecodeOne(buf)
	switch {
	case err != nil:
		return nil, err
	case n != len(buf):
		return nil, fmt.Errorf("ctree: decode: %d trailing bytes", len(buf)-n)
	}
	return t, nil
}

// DecodeOne reads one encoded table from the front of buf and returns it with
// the number of bytes it took. It lays the vertices out in the order they
// arrive — a compact depth-first arena — and computes every sum as it goes.
// The table must be in its one canonical spelling: DecodeOne rejects a tag
// stream that is not one tree of exactly V vertices, a vertex with two
// complete children (the input is not contracted), a vertex deeper than the
// table holds (ErrDepth), a variable that is cut short, padded or wider than
// 32 bits, and nonzero padding bits. The arena it builds is 16 bytes a
// vertex, and a vertex takes at least two bits of input: memory is bounded by
// the input, whatever depth the trie claims.
func DecodeOne(buf []byte) (*Table, int, error) {
	nv, off, err := canonicalUvarint(buf)
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("ctree: decode: vertex count: %w", err)
	case nv == 0:
		return New(), off, nil
	case nv > uint64(len(buf)-off)*4 || nv > math.MaxInt32:
		return nil, 0, fmt.Errorf("ctree: decode: %d vertices, %d bytes left", nv, len(buf)-off)
	}
	n := int(nv)
	tags := buf[off : off+(n+3)/4]
	if pad := tags[len(tags)-1] >> (2 * (1 + (n-1)%4)); pad != 0 {
		return nil, 0, errors.New("ctree: decode: nonzero padding bits")
	}
	off += len(tags)
	t := &Table{nodes: make([]node, n), nodeCount: int32(n)}
	// stack holds the links still to fill — parent<<1|branch — branch 0 on
	// top, as compact lays a trie out.
	var stk [walkDepth]uint32
	stack := stk[:0]
	for k := 0; k < n; k++ {
		v := &t.nodes[k]
		var p *node
		if k > 0 {
			if len(stack) == 0 {
				return nil, 0, fmt.Errorf("ctree: decode: the tree closes after %d of %d vertices", k, n)
			}
			link := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p = &t.nodes[link>>1]
			p.children[link&1] = uint32(k)
			if v.meta = (p.depth() + 1) << metaDepthShift; v.depth() > maxDepth {
				return nil, 0, ErrDepth
			}
		}
		tag := tags[k/4] >> (2 * (k % 4)) & 3
		if tag == 0 {
			// A complete leaf. Under a parent whose branch 0 is complete too,
			// it is the second of a pair that should have contracted.
			if p != nil && p.children[1] == uint32(k) && p.children[0] != 0 && t.nodes[p.children[0]].complete() {
				return nil, 0, fmt.Errorf("ctree: decode: vertex %d and its sibling are both complete", k)
			}
			v.meta |= metaComplete
			t.tally(v, +1)
			continue
		}
		x, m, err := canonicalUvarint(buf[off:])
		if err != nil || x > math.MaxUint32 {
			return nil, 0, fmt.Errorf("ctree: decode: variable of vertex %d: bad varint", k)
		}
		off += m
		v.branchVar = uint32(x)
		t.varSum += int32(m)
		if tag != 3 {
			t.gaps++
		}
		if tag&2 != 0 { // pushed in reverse: branch 0 pops first
			stack = append(stack, uint32(k)<<1|1)
		}
		if tag&1 != 0 {
			stack = append(stack, uint32(k)<<1)
		}
	}
	if len(stack) > 0 {
		return nil, 0, fmt.Errorf("ctree: decode: %d vertices do not close the tree", n)
	}
	return t, off, nil
}

// canonicalUvarint reads a uvarint from the front of buf that takes the fewest
// bytes its value can, so an input that decodes has one spelling.
func canonicalUvarint(buf []byte) (uint64, int, error) {
	x, n := binary.Uvarint(buf)
	switch {
	case n <= 0:
		return 0, 0, errors.New("truncated or overflowing varint")
	case n != code.UvarintLen(x):
		return 0, 0, errors.New("padded varint")
	}
	return x, n, nil
}

// Snapshot returns a frozen copy of the table, cached until the next
// mutation, so a table pushed to several peers between two completions is
// copied once. The copy is Clone: one copy of the arena, free-listed vertices
// included — nothing reachable from the root points at them, and every reader
// walks from the root. A table whose free vertices outnumber its live ones
// first compacts (compact), so neither arena ever holds more free vertices
// than live ones. A snapshot must never be mutated. Read as a Merge argument,
// and through Encode, EncodedSize, Codes, Len, Decisions, Complete and
// Snapshot, it is never written, so those may run from any goroutine. An empty table's
// snapshot is one shared empty table, so taking it allocates nothing.
func (t *Table) Snapshot() *Table {
	if t.snap != nil {
		return t.snap
	}
	if t.codes == 0 && t.nodeCount == 1 {
		t.snap = emptySnapshot
		return t.snap
	}
	if len(t.nodes)-int(t.nodeCount) > int(t.nodeCount) {
		t.compact()
	}
	s := t.Clone()
	s.snap = s
	t.snap = s
	return s
}

// compact lays the live vertices depth-first (branch 0 first) at the front of
// the arena and drops the free list, so later walks read a defragmented arena.
// The cached digests are dropped with it; the next Digest recomputes them.
func (t *Table) compact() {
	live := make([]node, t.nodeCount)
	// nstack holds pairs: a vertex of t to copy, and where to link its copy —
	// parent<<1|branch in live.
	next := uint32(0)
	t.nstack = append(t.nstack[:0], 0, 0)
	for len(t.nstack) > 0 {
		link, src := t.nstack[len(t.nstack)-2], t.nstack[len(t.nstack)-1]
		t.nstack = t.nstack[:len(t.nstack)-2]
		v := &t.nodes[src]
		live[next] = node{branchVar: v.branchVar, meta: v.meta &^ metaDigestOK}
		if next > 0 {
			live[link>>1].children[link&1] = next
		}
		for b := 1; b >= 0; b-- { // pushed in reverse: branch 0 is copied first
			if v.children[b] != 0 {
				t.nstack = append(t.nstack, next<<1|uint32(b), v.children[b])
			}
		}
		next++
	}
	t.nodes = append(t.nodes[:0], live...) // within capacity: no allocation
	t.free = 0
	t.digests = t.digests[:0]
}

// emptySnapshot is the snapshot of every empty table (Empty), and
// doneSnapshot that of every complete one (Done).
var emptySnapshot, doneSnapshot = frozen(), frozen(code.Root())

// frozen returns a snapshot of the table of cs.
func frozen(cs ...code.Code) *Table {
	t := New()
	t.InsertAll(cs)
	t.snap = t
	return t
}

// Done returns the snapshot of a complete table, whose frontier is the root
// code alone: the body of every termination report (§5.4). It is one shared
// table, so handing it out allocates nothing; it must never be mutated.
func Done() *Table { return doneSnapshot }

// Empty returns the snapshot of an empty table: one shared table, so handing
// it out allocates nothing; it must never be mutated.
func Empty() *Table { return emptySnapshot }

// Clone returns a deep copy of the table: one copy of the arena, free list
// included (it is indices into the arena, so it carries over as is), and one
// of the digest side array if the table has one. The snapshot cache and
// scratch space are not copied; the clone derives its own on demand.
func (t *Table) Clone() *Table {
	return &Table{
		nodes:     slices.Clone(t.nodes),
		digests:   slices.Clone(t.digests),
		nodeCount: t.nodeCount,
		free:      t.free,
		codes:     t.codes,
		varSum:    t.varSum,
		depthSum:  t.depthSum,
		gaps:      t.gaps,
	}
}
