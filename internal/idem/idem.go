// Package idem implements the paper's idempotence construction
// (Section 4.1, Theorem 4.2): any thunk using only Read, Write and CAS
// on shared memory is simulated — with constant overhead per operation
// — so that it becomes idempotent (Definition 4.1) and linearizable.
//
// Idempotence means that in any execution consisting of interleaved
// runs of the thunk (one process executing it plus any number of
// helpers re-executing it), the combined effect on shared memory is
// that of exactly one run, ending at the response of the first run to
// finish. This is what lets Algorithm 3's helpers execute a winner's
// critical section on its behalf without double-applying its effects.
//
// # Construction
//
// A thunk's code is deterministic given the responses of its shared
// memory operations, so every run issues the same operation sequence;
// the i-th operation of any run is "operation i". Each Exec (one
// logical thunk execution, possibly run by many helpers) carries a
// response log: a head of headSlots slots inline in the Exec, then
// overflow segments of segSlots slots each, chained off it as runs
// reach them. Slot i is the canonical outcome of operation i: the first
// run to fill it decides, and every other run adopts the logged
// response instead of its own.
//
// A segment link is written once. The first run to need the next
// segment installs a fresh one by CAS; every run, including one whose
// own install CAS lost, adopts the installed segment, so all runs agree
// on every slot. A losing run drops its segment before writing into
// it. Each run keeps a cursor on its current segment, so finding
// operation i's slot is O(1), and an installed descriptor records its
// slot pointer, so resolving it needs no lookup.
//
// Shared cells always hold immutable boxed values. Effectful
// operations (Write, CAS) never mutate a cell directly; they install a
// unique operation descriptor into the cell by CAS and then resolve it:
//
//  1. if the log slot is already filled, the operation is done — adopt
//     the logged response and apply no effect;
//  2. otherwise read the cell; if it holds another descriptor, help
//     resolve it first (so operations cannot be blocked — the
//     construction is itself non-blocking);
//  3. install this run's descriptor over the observed box by CAS;
//  4. resolve: race to CAS the response into the log slot; if this
//     descriptor's installation is the one recorded in the log, replace
//     the descriptor with the operation's result value — otherwise the
//     operation already took effect through an earlier installation, so
//     undo by restoring the displaced box, a net no-op on memory.
//
// Boxes are freshly allocated pointers, so an install CAS can never
// succeed against a stale snapshot via ABA, which is what makes step 4
// sound: at most one installation per operation is ever recorded, so
// the operation's effect is applied exactly once, at the moment of that
// installation (its linearization point). The log names the recorded
// installation by its descriptor's id, which is never reused either.
//
// Reads adopt the first logged value; failed CASes are logged at the
// moment a helper observes a conflicting value.
//
// # Cost
//
// Every operation takes O(1) steps plus O(1) per interfering cell
// update during the operation. Helpers of the same Exec interfere at
// most a constant number of times per operation (install + resolve),
// so in race-free critical sections the overhead is a constant factor,
// matching Theorem 4.2; concurrent races from other thunks (which the
// paper explicitly permits, footnote 1) are charged to the interferer.
// Crossing into a new overflow segment adds at most two steps (load the
// link, install by CAS) once per segSlots operations.
//
// Memory is O(1) per operation executed: an Exec costs its inline head
// plus one segment per segSlots operations beyond it, however generous
// maxOps is. maxOps only bounds the operation index: operation
// maxOps+1 panics.
package idem

import (
	"fmt"
	"sync/atomic"

	"wflocks/internal/arena"
	"wflocks/internal/env"
)

// arenas is the per-process allocation state for the construction's
// published objects. Boxes, descriptors, responses, execs and log
// segments are all read by helpers at unbounded staleness, so none of
// them may ever be recycled — the bump arenas hand out each pointer
// exactly once and abandon full chunks to the garbage collector, which
// preserves the freshness invariant (see the ABA discussion above)
// while amortizing the hot path to ~1/256 of a heap allocation per
// object.
//
// Plain value boxes (vals) have their own arena, apart from descriptor
// boxes (boxes). A cell's current box is a value box and outlives the
// operation that committed it; sharing a chunk with descriptor boxes
// would let it pin descriptors, whose displaced boxes (opDesc.prev)
// reach further descriptors and older chunks, so one live cell would
// keep its writer's whole history reachable.
type arenas struct {
	vals  arena.Arena[box]
	boxes arena.Arena[box]
	descs arena.Arena[opDesc]
	resps arena.Arena[response]
	cells arena.Arena[Cell]
	execs arena.Arena[Exec]
	segs  arena.Arena[logSeg]
	runs  arena.Arena[Run]

	nextID, endID uint64 // the unused part of the reserved id block
}

// arenasOf returns e's idem arenas, creating them on first use, or nil
// when e carries no scratch state (the deterministic simulator). All
// allocation helpers below tolerate a nil receiver by falling back to
// plain heap allocation, which is always correct.
func arenasOf(e env.Env) *arenas {
	p := env.ScratchOf(e, env.ScratchIdem)
	if p == nil {
		return nil
	}
	a, ok := (*p).(*arenas)
	if !ok {
		a = &arenas{}
		*p = a
	}
	return a
}

// newVal returns a fresh plain value box.
func (a *arenas) newVal(val uint64) *box {
	if a == nil {
		return &box{val: val}
	}
	b := a.vals.New()
	b.val = val
	return b
}

// newDescBox returns a fresh box carrying descriptor d.
func (a *arenas) newDescBox(d *opDesc) *box {
	if a == nil {
		return &box{desc: d}
	}
	b := a.boxes.New()
	b.desc = d
	return b
}

func (a *arenas) newSeg() *logSeg {
	if a == nil {
		return &logSeg{}
	}
	return a.segs.New()
}

func (a *arenas) newResp(kind opKind, c *Cell, val uint64) *response {
	if a == nil {
		return &response{kind: kind, cell: c, val: val}
	}
	r := a.resps.New()
	r.kind, r.cell, r.val = kind, c, val
	return r
}

// descIDs reserves descriptor ids for all processes; see newID.
var descIDs atomic.Uint64

// idBlock is the number of descriptor ids a process reserves at once.
const idBlock = 1 << 20

// newID returns a descriptor id that no other descriptor ever had or
// will have. Ids are never zero.
func (a *arenas) newID() uint64 {
	if a == nil {
		return descIDs.Add(1)
	}
	if a.nextID == a.endID {
		a.endID = descIDs.Add(idBlock) + 1
		a.nextID = a.endID - idBlock
	}
	id := a.nextID
	a.nextID++
	return id
}

func (a *arenas) newDesc(slot *atomic.Pointer[response], kind opKind, newVal uint64, prev *box) *opDesc {
	if a == nil {
		return &opDesc{slot: slot, id: a.newID(), kind: kind, newVal: newVal, prev: prev}
	}
	d := a.descs.New()
	d.slot, d.id, d.kind, d.newVal, d.prev = slot, a.newID(), kind, newVal, prev
	return d
}

// opKind identifies the kind of a simulated shared-memory operation.
type opKind int32

const (
	opRead opKind = iota + 1
	opWrite
	opCAS
)

func (k opKind) String() string {
	switch k {
	case opRead:
		return "Read"
	case opWrite:
		return "Write"
	case opCAS:
		return "CAS"
	default:
		return fmt.Sprintf("opKind(%d)", int32(k))
	}
}

// box is an immutable cell state: either a plain value (desc == nil) or
// an installed operation descriptor. Boxes are never mutated after
// publication; freshness of the pointer rules out ABA on install.
type box struct {
	val  uint64
	desc *opDesc
}

// opDesc is an installed effectful operation (Write or CAS success
// path) of one Exec.
type opDesc struct {
	slot   *atomic.Pointer[response] // the op's log slot
	id     uint64                    // unique for all time; see newID
	kind   opKind
	newVal uint64
	prev   *box // box displaced by the installation, for undo
}

// response is the canonical logged outcome of one operation. For a
// Write or a successful CAS, val is the id of the descriptor whose
// installation took effect. Naming it by id rather than by pointer
// keeps logs from pointing at descriptors: descriptors point at log
// slots, and that cycle, run through arena chunks of different ages,
// would keep every older chunk reachable from the newest.
type response struct {
	kind opKind
	cell *Cell
	val  uint64 // Read: value read; CAS: 0 = failure, else as Write
}

// Cell is a shared memory location usable inside idempotent thunks.
// Construct with NewCell.
type Cell struct {
	p atomic.Pointer[box]
}

// NewCell returns a cell holding v.
func NewCell(v uint64) *Cell {
	c := &Cell{}
	c.p.Store(&box{val: v})
	return c
}

// NewCellIn returns a cell holding v, allocated from e's process
// arena when available. Intended for short-lived cells created on hot
// paths (per-call parameter and result cells); long-lived structural
// cells should use NewCell.
func NewCellIn(e env.Env, v uint64) *Cell {
	a := arenasOf(e)
	if a == nil {
		return NewCell(v)
	}
	c := a.cells.New()
	c.p.Store(a.newVal(v))
	return c
}

// Load reads the cell from outside any thunk, helping resolve any
// installed descriptor first.
func (c *Cell) Load(e env.Env) uint64 {
	for {
		e.Step()
		b := c.p.Load()
		if b.desc == nil {
			return b.val
		}
		resolve(e, c, b)
	}
}

// Store writes the cell from outside any thunk. It helps resolve any
// installed descriptor first so the write cannot bury one.
func (c *Cell) Store(e env.Env, v uint64) {
	nb := arenasOf(e).newVal(v)
	for {
		e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(e, c, b)
			continue
		}
		e.Step()
		if c.p.CompareAndSwap(b, nb) {
			return
		}
	}
}

// CompareAndSwap performs a CAS from outside any thunk.
func (c *Cell) CompareAndSwap(e env.Env, old, new uint64) bool {
	for {
		e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(e, c, b)
			continue
		}
		if b.val != old {
			return false
		}
		e.Step()
		if c.p.CompareAndSwap(b, arenasOf(e).newVal(new)) {
			return true
		}
	}
}

// Body is the code of a thunk. It must be deterministic: all decisions
// must derive from the responses of the Run's shared-memory operations
// (plus values captured at construction). It must not perform any other
// shared-memory access, must not block, and must not start nested
// tryLocks (the paper forbids lock nesting).
//
// One relaxation is permitted: because every run derives the same
// values from the canonical log, a body may publish results through
// plain atomic stores into per-execution result fields — all runs
// store the identical value, so the stores are race-free in effect and
// idempotent by construction.
type Body func(r *Run)

// Thunk is the allocation-free alternative to Body: a pre-built frame
// whose RunThunk method is the thunk's code, subject to the same
// determinism rules. Using a frame object (typically arena-allocated
// per call) instead of a fresh closure keeps the hot path free of
// closure captures.
type Thunk interface {
	RunThunk(r *Run)
}

// headSlots is the number of response-log slots held inline in every
// Exec. Measured on 256-slot map shards, single-key Put, Update and
// Delete run 7–17 operations, 98% of them at most 12, so they almost
// never leave the head; a two-key Map.Atomic runs 16–23 and takes one
// segment.
const headSlots = 12

// segSlots is the number of response-log slots per overflow segment.
const segSlots = 16

// logSeg is one overflow segment of an Exec's response log. next is
// written once, by the install CAS of the first run to need it.
type logSeg struct {
	slots [segSlots]atomic.Pointer[response]
	next  atomic.Pointer[logSeg]
}

// Exec is one logical execution of a thunk, shared by its initiating
// process and any helpers. All of them call Execute; the combined
// effect equals exactly one run of the body.
type Exec struct {
	thunk    Thunk
	maxOps   int
	finished atomic.Bool
	// head holds the log slots of operations 0..headSlots-1; overflow
	// links the segments holding the rest, installed on demand.
	head     [headSlots]atomic.Pointer[response]
	overflow atomic.Pointer[logSeg]
}

// NewExec creates an execution of body that performs at most maxOps
// shared-memory operations (the paper's T bound).
func NewExec(body Body, maxOps int) *Exec {
	if maxOps < 0 {
		panic("idem: negative maxOps")
	}
	return &Exec{thunk: bodyThunk(body), maxOps: maxOps}
}

// bodyThunk adapts a Body to the Thunk interface.
type bodyThunk Body

func (b bodyThunk) RunThunk(r *Run) { b(r) }

// NewExecIn creates an execution of frame t performing at most maxOps
// shared-memory operations, drawing the exec (and later its overflow
// segments) from e's process arena when available. Exec objects are
// published to helpers and read at unbounded staleness, so they are
// never recycled; the arena only amortizes their allocation.
func NewExecIn(e env.Env, t Thunk, maxOps int) *Exec {
	if maxOps < 0 {
		panic("idem: negative maxOps")
	}
	a := arenasOf(e)
	if a == nil {
		return &Exec{thunk: t, maxOps: maxOps}
	}
	x := a.execs.New()
	x.thunk, x.maxOps = t, maxOps
	return x
}

// Execute runs or helps the thunk to completion. It may be called any
// number of times by any number of processes; memory effects apply as
// if the body ran exactly once (Definition 4.1).
func (x *Exec) Execute(e env.Env) {
	a := arenasOf(e)
	var r *Run
	if a == nil {
		r = &Run{e: e, x: x}
	} else {
		r = a.runs.New()
		*r = Run{e: e, x: x, ar: a}
	}
	x.thunk.RunThunk(r)
	x.finished.Store(true)
}

// Finished reports whether some run of the thunk has completed.
func (x *Exec) Finished() bool { return x.finished.Load() }

// Run is one process's run of an Exec; it carries the op cursor. It is
// created by Execute and passed to the Body.
type Run struct {
	e    env.Env
	x    *Exec
	ar   *arenas
	next int
	seg  *logSeg // segment holding op next-1 once past the head
}

// Env exposes the environment, e.g. for step accounting of private
// work inside the body.
func (r *Run) Env() env.Env { return r.e }

// logged returns the canonical response in slot if decided.
func (r *Run) logged(slot *atomic.Pointer[response]) *response {
	r.e.Step()
	return slot.Load()
}

// slot bounds-checks and claims the next op index, returning it with
// its log slot.
func (r *Run) slot() (int, *atomic.Pointer[response]) {
	i := r.next
	if i >= r.x.maxOps {
		panic(fmt.Sprintf("idem: thunk exceeded maxOps=%d", r.x.maxOps))
	}
	r.next++
	if i < headSlots {
		return i, &r.x.head[i]
	}
	j := (i - headSlots) % segSlots
	if j == 0 {
		r.seg = r.nextSeg()
	}
	return i, &r.seg.slots[j]
}

// nextSeg returns the segment after the run's current one (the first
// overflow segment while the run is still in the head), installing a
// fresh segment if none is linked yet. Every run adopts whichever
// segment the link's single successful CAS installed; a run whose CAS
// lost drops its own segment unwritten.
func (r *Run) nextSeg() *logSeg {
	link := &r.x.overflow
	if r.seg != nil {
		link = &r.seg.next
	}
	r.e.Step()
	if s := link.Load(); s != nil {
		return s
	}
	s := r.ar.newSeg()
	r.e.Step()
	if link.CompareAndSwap(nil, s) {
		return s
	}
	// The link is written once, so this load returns the segment the
	// failed CAS observed.
	return link.Load()
}

// validate panics if a replayed response disagrees with the op being
// issued — which means the body is not deterministic.
func validate(resp *response, kind opKind, c *Cell, i int) {
	if resp.kind != kind || resp.cell != c {
		panic(fmt.Sprintf(
			"idem: non-deterministic thunk: op %d replayed as %v on %p, logged %v on %p",
			i, kind, c, resp.kind, resp.cell))
	}
}

// Read performs an idempotent read of c: all runs of the thunk observe
// the same (first-logged) value.
func (r *Run) Read(c *Cell) uint64 {
	i, slot := r.slot()
	for {
		if resp := r.logged(slot); resp != nil {
			validate(resp, opRead, c, i)
			return resp.val
		}
		r.e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(r.e, c, b)
			continue
		}
		r.e.Step()
		slot.CompareAndSwap(nil, r.ar.newResp(opRead, c, b.val))
		resp := r.logged(slot)
		validate(resp, opRead, c, i)
		return resp.val
	}
}

// Write performs an idempotent write of v to c: the write takes effect
// exactly once no matter how many runs execute it.
func (r *Run) Write(c *Cell, v uint64) {
	i, slot := r.slot()
	for {
		if resp := r.logged(slot); resp != nil {
			validate(resp, opWrite, c, i)
			return
		}
		r.e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(r.e, c, b)
			continue
		}
		d := r.ar.newDesc(slot, opWrite, v, b)
		db := r.ar.newDescBox(d)
		r.e.Step()
		if c.p.CompareAndSwap(b, db) {
			resolve(r.e, c, db)
			return
		}
	}
}

// CAS performs an idempotent compare-and-swap on c: its success or
// failure is decided once (by the canonical log) and its effect applies
// at most once.
func (r *Run) CAS(c *Cell, old, new uint64) bool {
	i, slot := r.slot()
	for {
		if resp := r.logged(slot); resp != nil {
			validate(resp, opCAS, c, i)
			return resp.val != 0
		}
		r.e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(r.e, c, b)
			continue
		}
		if b.val != old {
			// Observed a conflicting value: the op fails, linearized at
			// this load — unless another run already decided otherwise.
			r.e.Step()
			slot.CompareAndSwap(nil, r.ar.newResp(opCAS, c, 0))
			resp := r.logged(slot)
			validate(resp, opCAS, c, i)
			return resp.val != 0
		}
		d := r.ar.newDesc(slot, opCAS, new, b)
		db := r.ar.newDescBox(d)
		r.e.Step()
		if c.p.CompareAndSwap(b, db) {
			resolve(r.e, c, db)
			resp := r.logged(slot)
			validate(resp, opCAS, c, i)
			return resp.val != 0
		}
	}
}

// resolve completes an installed descriptor found in cell c inside box
// db. Any process may (and must, to make progress) resolve descriptors
// it encounters. The descriptor's effect is committed if and only if
// its installation is the one recorded in its op's log slot; otherwise
// the displaced box is restored, making the installation a no-op.
func resolve(e env.Env, c *Cell, db *box) {
	a := arenasOf(e)
	d := db.desc
	e.Step()
	d.slot.CompareAndSwap(nil, a.newResp(d.kind, c, d.id))
	e.Step()
	resp := d.slot.Load()
	e.Step()
	if resp.kind == d.kind && resp.val == d.id {
		c.p.CompareAndSwap(db, a.newVal(d.newVal))
	} else {
		c.p.CompareAndSwap(db, d.prev)
	}
}
