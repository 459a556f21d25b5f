package offramps

import (
	"sync"

	"offramps/internal/capture"
	"offramps/internal/printer"
	"offramps/internal/sim"
)

// TestbedCore pools the allocation-heavy per-run state of a testbed so
// a campaign worker resets instead of re-allocating: the simulation
// engine (wheel slots and far-tier heap keep their backing storage
// across Reset) and — when results are reclaimed — recording and
// deposit backing arrays.
//
// Ownership rules (see DESIGN.md §12): a core may be reused by any
// number of *sequential* NewTestbed(WithCore(core)) calls, but never
// concurrently — one core belongs to one worker. Recordings and Parts
// transfer ownership to the Result they land in and are NEVER recycled
// implicitly; only an explicit Reclaim on a result the caller is done
// with returns their buffers to the core. A campaign whose results
// escape to sinks or the golden cache must not Reclaim them — engine
// reuse alone already removes the dominant rebuild cost, and fingerprint
// mode removes the recording allocations entirely.
type TestbedCore struct {
	engine   *sim.Engine
	recBufs  [][]capture.Transaction
	deposits [][]printer.Deposit
}

// NewTestbedCore returns an empty core.
func NewTestbedCore() *TestbedCore {
	return &TestbedCore{engine: sim.NewEngine()}
}

// Reclaim takes the bulk buffers out of a dead result — one the caller
// will not read again — and recycles them into the core for the next
// run. The result's Recording and Part fields are nilled so a stale
// reference cannot observe the buffers being rewritten.
func (c *TestbedCore) Reclaim(res *Result) {
	if res == nil {
		return
	}
	seen := make(map[*capture.Recording]bool, 3)
	for _, rec := range []*capture.Recording{res.Recording, res.ArduinoRecording, res.RAMPSRecording} {
		if rec == nil || seen[rec] {
			continue
		}
		seen[rec] = true
		if cap(rec.Transactions) > 0 {
			c.recBufs = append(c.recBufs, rec.Transactions[:0])
		}
	}
	res.Recording, res.ArduinoRecording, res.RAMPSRecording = nil, nil, nil
	if res.Part != nil {
		if d := res.Part.ReclaimDeposits(); cap(d) > 0 {
			c.deposits = append(c.deposits, d[:0])
		}
		res.Part = nil
	}
}

// takeRecBuf pops one spare recording buffer, or nil.
func (c *TestbedCore) takeRecBuf() []capture.Transaction { return popBuf(&c.recBufs) }

// takeDeposits pops one spare deposit ledger, or nil.
func (c *TestbedCore) takeDeposits() []printer.Deposit { return popBuf(&c.deposits) }

// popBuf pops the last spare buffer off a core's free list, or nil.
func popBuf[T any](bufs *[][]T) []T {
	n := len(*bufs)
	if n == 0 {
		return nil
	}
	buf := (*bufs)[n-1]
	(*bufs)[n-1] = nil
	*bufs = (*bufs)[:n-1]
	return buf
}

// corePool recycles worker cores across campaigns in one process.
var corePool = sync.Pool{New: func() any { return NewTestbedCore() }}

// acquireCore takes a pooled core; releaseCore returns it once the
// worker is done with every testbed built on it.
func acquireCore() *TestbedCore  { return corePool.Get().(*TestbedCore) }
func releaseCore(c *TestbedCore) { corePool.Put(c) }

// WithCore builds the testbed on a pooled core: the core's engine is
// Reset and reused, and reclaimed deposit and recording buffers back the
// new rig's part and its runs' recorded captures.
// The caller must use cores sequentially (one live testbed per core).
func WithCore(c *TestbedCore) Option { return func(o *options) { o.core = c } }
