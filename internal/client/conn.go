package client

// The connection engine. A conn is one TCP connection to the server
// (redialed after a failure) that one or more handles drive directly:
// there is no goroutine of its own. A plain Client handle owns a private
// conn; a Mux conn is shared by many handles.
//
// Callers take turns. A caller queues its ops, and whoever finds the
// write side free frames everything queued while in-flight slots last,
// then flushes. Whoever finds the read side free reads responses,
// completing the owner of each one, until its own ops are done; then it
// passes the read side to the owner of a frame still in flight. When a
// frame completes, a free write side goes to the last owner it woke, so
// the owners it woke share one next frame. On a private conn the one
// caller always holds both sides in turn, so a point op is a write and
// a read on the caller's goroutine.
//
// Point ops queued by different handles are combined: a frame carrying
// one waiter is a plain GET/PUT/DELETE, a frame carrying several is an
// MGET/MPUT/MDELETE whose response is scattered back by input position.
// Under load the queue fills while every slot is in flight, so batch
// size follows the arrival rate with no timer.
//
// In-flight frames live in a fixed table of window slots taken from a
// free list. A frame's id carries its slot index, and a slot is reused
// only after its response arrived or the connection died, so every
// response (a scan chunk included) finds its frame by id and a straggler
// can never be matched to a later frame.
//
// A failure on either side closes the connection and completes every
// queued and in-flight op with the cause, noting whether the op's bytes
// may have reached the server. Each owner then applies the retry and
// ambiguity rules in retry.go; the next writer redials.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// coalesceMax caps the waiters one combined point frame carries.
	coalesceMax = 512
	// turnBytes bounds what one write turn encodes before flushing.
	turnBytes = 64 << 10
	// slotBits is the low part of a frame id that names its slot; a
	// window is at most muxMaxWindow (32) slots.
	slotBits = 8
)

// op is one frame's worth of work: a point op, one chunk of a batch, a
// scan or a control request, and the state its completion fills in. All
// fields after the operand are guarded by the conn's lock while the op
// is queued or in flight.
type op struct {
	req        byte
	key, val   uint64   // point operand; lo/hi for scans
	keys, vals []uint64 // batch chunk operand
	resVals    []uint64 // batch chunk results (the caller's slices)
	resOks     []bool
	trace      uint64 // trace id this op announces (0: untraced)
	submitT    int64  // submit stamp for the mux-stage span

	// encode and decode serve control requests, whose frames and
	// responses have no built-in form here; decode also runs for every
	// frame of a streamed response and reports the last one.
	encode func(b []byte, id uint64) []byte
	decode func(payload []byte) (last bool, err error)

	resVal uint64
	resOk  bool
	seq    uint64 // replication seq the response carried
	pairs  []byte // scan pairs, reset each attempt

	w    *waiter
	done bool
	err  error // transport, protocol, busy or application failure
	sent bool  // on failure: the request may have reached the server
}

// append encodes o's request frame under id.
func (o *op) append(b []byte, id uint64) []byte {
	switch o.req {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		return wire.AppendPoint(b, id, o.req, o.key, o.val)
	case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
		return wire.AppendBatch(b, id, o.req, o.keys, o.vals)
	case wire.OpScan, wire.OpSnapScan:
		return wire.AppendScan(b, id, o.req == wire.OpSnapScan, o.key, o.val)
	}
	return o.encode(b, id)
}

// respFor is the response opcode a request expects.
func respFor(req byte) byte {
	switch req {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		return wire.RespPoint
	case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
		return wire.RespBatch
	case wire.OpScan, wire.OpSnapScan:
		return wire.RespScanChunk
	case wire.OpStats:
		return wire.RespStats
	case wire.OpMetrics:
		return wire.RespMetrics
	case wire.OpTraceDump:
		return wire.RespTrace
	}
	return wire.RespOK
}

// pointClass maps a point opcode to its combining class (-1 otherwise).
func pointClass(req byte) int {
	switch req {
	case wire.OpGet:
		return 0
	case wire.OpPut:
		return 1
	case wire.OpDelete:
		return 2
	}
	return -1
}

// pointBatchOp is the batch opcode a combined frame of each class uses.
var pointBatchOp = [3]byte{wire.OpMGet, wire.OpMPut, wire.OpMDelete}

// waiter is where a parked handle sleeps. read and write hand it that
// side of the conn.
type waiter struct {
	wake        chan struct{}
	read, write bool
}

func (w *waiter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// frame is one in-flight slot.
type frame struct {
	id     uint64 // 0: free
	ops    []*op  // one op, or the waiters of a combined point frame
	start  int    // offset of the frame in its write turn
	unsent bool   // the writer proved no byte of it left the client
	vals   []uint64
	oks    []bool
}

// wireConn is one dialed connection; a redial makes a new one, so a
// side still finishing I/O on the old one never shares its buffers.
type wireConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

type conn struct {
	c      *Client
	shared bool // Mux conn: records mux-stage spans and coalesce sizes
	hint   int  // metrics stripe

	mu      sync.Mutex
	wc      *wireConn // nil: the next writer (re)dials
	dialed  bool      // a dial succeeded before; the next one is a redial
	writing bool
	reading bool
	points  [3][]*op // queued point ops by class
	others  []*op    // queued batch chunks, scans and control ops, FIFO
	slots   []frame
	free    []int
	seq     uint64

	// Write-side scratch.
	out    []byte
	turn   []int // slots framed in the current write turn
	keyBuf []uint64
	valBuf []uint64

	// Read-side scratch.
	hdr [wire.HeaderLen]byte
	in  []byte
}

// newConn dials a conn with window in-flight slots.
func (c *Client) newConn(window int, shared bool, hint int) (*conn, error) {
	e := &conn{c: c, shared: shared, hint: hint, slots: make([]frame, window)}
	for i := window - 1; i >= 0; i-- {
		e.free = append(e.free, i)
	}
	wc, err := c.dial()
	if err != nil {
		return nil, err
	}
	e.wc, e.dialed = wc, true
	return e, nil
}

// exec queues every op not yet done and drives the conn until all of
// them complete, successfully or not.
func (e *conn) exec(w *waiter, ops []*op) {
	e.mu.Lock()
	for _, o := range ops {
		if !o.done {
			o.w, o.err, o.sent = w, nil, false
			o.pairs = o.pairs[:0]
			e.enqueue(o)
		}
	}
	for {
		switch {
		case w.write:
			w.write = false
			e.writeTurn()
		case w.read:
			w.read = false
			e.readTurn(w, ops)
		case !e.writing && e.framable():
			e.writing = true
			e.writeTurn()
		case !e.reading && e.inflight() > 0:
			if allDone(ops) {
				e.passRead()
			} else {
				e.reading = true
				e.readTurn(w, ops)
			}
		case allDone(ops):
			e.mu.Unlock()
			return
		default:
			e.mu.Unlock()
			<-w.wake
			e.mu.Lock()
		}
	}
}

func allDone(ops []*op) bool {
	for _, o := range ops {
		if !o.done {
			return false
		}
	}
	return true
}

func (e *conn) enqueue(o *op) {
	if cls := pointClass(o.req); cls >= 0 {
		e.points[cls] = append(e.points[cls], o)
	} else {
		e.others = append(e.others, o)
	}
}

func (e *conn) queued() bool {
	return len(e.others)+len(e.points[0])+len(e.points[1])+len(e.points[2]) > 0
}

// framable reports whether a write turn can make progress.
func (e *conn) framable() bool {
	return e.queued() && (len(e.free) > 0 || e.wc == nil)
}

func (e *conn) inflight() int { return len(e.slots) - len(e.free) }

// complete finishes o and wakes its owner.
func (e *conn) complete(o *op, err error, sent bool) {
	o.err, o.sent, o.done = err, sent, true
	o.w.signal()
}

// finish completes every op of slot i and frees the slot. A free write
// side goes to the last owner it woke: on a shared conn the owners
// about to resubmit then queue behind it and share its next frame,
// instead of each finding the write side free and sending a frame of
// one. (On a private conn that owner is the reader itself.)
func (e *conn) finish(i int, err error, sent bool) {
	f := &e.slots[i]
	for _, o := range f.ops {
		e.complete(o, err, sent)
	}
	if !e.writing {
		w := f.ops[len(f.ops)-1].w
		e.writing, w.write = true, true
		w.signal()
	}
	clear(f.ops)
	f.ops = f.ops[:0]
	f.id, f.unsent = 0, false
	e.free = append(e.free, i)
}

// writeTurn frames queued ops and flushes them until the queue is empty
// or every slot is in flight. Called and returns with e.mu held and
// e.writing set; clears it.
func (e *conn) writeTurn() {
	for e.framable() {
		wc := e.wc
		if wc == nil {
			e.mu.Unlock()
			nwc, err := e.c.dial()
			e.mu.Lock()
			if err != nil {
				e.failQueued(err)
				break
			}
			if e.dialed {
				e.c.faults.redials.Add(1)
			}
			e.wc, e.dialed, wc = nwc, true, nwc
		}
		e.seal()
		e.mu.Unlock()
		n, err := wc.bw.Write(e.out)
		if err == nil {
			err = wc.bw.Flush()
		}
		left := n - wc.bw.Buffered() // bytes that reached the kernel
		e.mu.Lock()
		if err != nil && e.wc == wc {
			for _, i := range e.turn {
				if f := &e.slots[i]; f.id != 0 && f.start >= left {
					f.unsent = true
				}
			}
			e.fail(wc, err)
		}
	}
	e.writing = false
}

// seal moves queued ops into free slots and encodes their frames into
// e.out: combined point frames first, then the FIFO ops one per frame.
func (e *conn) seal() {
	e.out, e.turn = e.out[:0], e.turn[:0]
	for cls := range e.points {
		for len(e.points[cls]) > 0 && len(e.free) > 0 && len(e.out) < turnBytes {
			q := e.points[cls]
			n := min(len(q), coalesceMax)
			f := e.claim()
			f.ops = append(f.ops, q[:n]...)
			e.points[cls] = append(q[:0], q[n:]...)
			if n == 1 {
				e.encode(f, f.ops[0].req, nil, nil)
				continue
			}
			e.keyBuf, e.valBuf = e.keyBuf[:0], e.valBuf[:0]
			for _, o := range f.ops {
				e.keyBuf = append(e.keyBuf, o.key)
				e.valBuf = append(e.valBuf, o.val)
			}
			vals := e.valBuf
			if cls != 1 {
				vals = nil
			}
			e.encode(f, pointBatchOp[cls], e.keyBuf, vals)
		}
	}
	for len(e.others) > 0 && len(e.free) > 0 && len(e.out) < turnBytes {
		o := e.others[0]
		n := copy(e.others, e.others[1:])
		e.others[n] = nil
		e.others = e.others[:n]
		f := e.claim()
		f.ops = append(f.ops, o)
		e.encode(f, o.req, nil, nil)
	}
}

// claim takes a free slot and gives it a fresh id.
func (e *conn) claim() *frame {
	i := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.seq++
	f := &e.slots[i]
	f.id = e.seq<<slotBits | uint64(i)
	f.start = len(e.out)
	e.turn = append(e.turn, i)
	return f
}

// encode appends f's frame: a single op in its own form, or a combined
// point frame of req over keys/vals. A frame carrying traced ops is
// announced by one OpTraceCtx frame (the server holds one pending trace
// per connection), and on a shared conn each traced op closes its
// mux-stage span (submit to seal, Aux = the frame's waiter count) here.
func (e *conn) encode(f *frame, req byte, keys, vals []uint64) {
	var tid, sealNs uint64
	for _, o := range f.ops {
		if o.trace == 0 {
			continue
		}
		if tid == 0 {
			tid = o.trace
		}
		if !e.shared {
			break
		}
		if sealNs == 0 {
			sealNs = uint64(time.Now().UnixNano())
		}
		var dur uint64
		if st := uint64(o.submitT); sealNs > st {
			dur = sealNs - st
		}
		e.c.tracer.Record(e.hint, trace.Span{
			TraceID: o.trace, Kind: trace.KindMuxStage, Op: o.req,
			Start: uint64(o.submitT), Dur: dur, Aux: uint64(len(f.ops)),
		})
	}
	if tid != 0 {
		e.out = wire.AppendTraceCtx(e.out, f.id, tid)
	}
	if e.shared && pointClass(f.ops[0].req) >= 0 {
		e.c.coalesce.Record(e.hint, uint64(len(f.ops)))
	}
	if keys != nil {
		e.out = wire.AppendBatch(e.out, f.id, req, keys, vals)
	} else {
		e.out = f.ops[0].append(e.out, f.id)
	}
}

// readTurn reads responses until every op in mine is done or nothing is
// in flight, then drains whatever has already arrived (reading it does
// not block, and handing the read side on costs a wakeup). A write side
// handed to w meanwhile is used at once, which keeps a private conn's
// batch chunks pipelined. Called and returns with e.mu held and
// e.reading set; clears it.
func (e *conn) readTurn(w *waiter, mine []*op) {
	for e.wc != nil && e.inflight() > 0 && (!allDone(mine) || e.wc.br.Buffered() > 0) {
		wc := e.wc
		e.mu.Unlock()
		id, rop, payload, err := e.readFrame(wc.br)
		e.mu.Lock()
		if e.wc != wc {
			continue // that connection already failed; its ops are salvaged
		}
		if err == nil {
			err = e.dispatch(id, rop, payload)
		}
		if err != nil {
			e.fail(wc, err)
			continue
		}
		if w.write {
			w.write = false
			e.writeTurn()
		}
	}
	e.reading = false
}

// passRead hands the free read side to the owner of the oldest frame in
// flight.
func (e *conn) passRead() {
	var oldest *frame
	for i := range e.slots {
		if f := &e.slots[i]; f.id != 0 && (oldest == nil || f.id < oldest.id) {
			oldest = f
		}
	}
	w := oldest.ops[0].w
	e.reading, w.read = true, true
	w.signal()
}

// readFrame reads one response frame into the read-side scratch.
func (e *conn) readFrame(br *bufio.Reader) (id uint64, op byte, payload []byte, err error) {
	if _, err = io.ReadFull(br, e.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	length := binary.LittleEndian.Uint32(e.hdr[:4])
	if length < wire.HeaderLen-4 || length > wire.MaxFrame {
		return 0, 0, nil, fmt.Errorf("bad response frame length %d", length)
	}
	id = binary.LittleEndian.Uint64(e.hdr[4:12])
	op = e.hdr[12]
	n := int(length) - (wire.HeaderLen - 4)
	if cap(e.in) < n {
		e.in = make([]byte, n)
	}
	e.in = e.in[:n]
	if _, err = io.ReadFull(br, e.in); err != nil {
		return 0, 0, nil, err
	}
	return id, op, e.in, nil
}

// dispatch routes one response to its frame by id and completes the
// frame's ops once their response is whole. A returned error is a
// transport or protocol failure of the whole connection; BUSY and
// RespError fail only their own frame.
func (e *conn) dispatch(id uint64, rop byte, payload []byte) error {
	if rop == wire.RespBusy && id == 0 {
		// Admission rejection: the server answered at accept time and
		// read nothing.
		return errBusy
	}
	i := int(id & (1<<slotBits - 1))
	if i >= len(e.slots) || e.slots[i].id != id {
		return fmt.Errorf("response id %d matches no in-flight frame", id)
	}
	f := &e.slots[i]
	switch rop {
	case wire.RespBusy:
		// Rate-limit rejection of this frame alone: nothing executed,
		// the connection stays healthy.
		e.c.faults.busy.Add(1)
		e.finish(i, errBusy, false)
		return nil
	case wire.RespError:
		e.finish(i, respError(payload), true)
		return nil
	}
	o := f.ops[0]
	req := o.req
	if len(f.ops) > 1 {
		req = pointBatchOp[pointClass(req)]
	}
	if rop != respFor(req) {
		return fmt.Errorf("response id %d: op %#x, want %#x", id, rop, respFor(req))
	}
	last := true
	var err error
	switch {
	case len(f.ops) > 1:
		n := len(f.ops)
		if cap(f.vals) < n {
			f.vals, f.oks = make([]uint64, n), make([]bool, n)
		}
		var seq uint64
		if seq, err = wire.DecodeBatch(payload, f.vals[:n], f.oks[:n]); err == nil {
			for j, w := range f.ops {
				w.resVal, w.resOk, w.seq = f.vals[j], f.oks[j], seq
			}
		}
	case o.decode != nil:
		last, err = o.decode(payload)
	case rop == wire.RespPoint:
		o.resVal, o.resOk, o.seq, err = wire.DecodePoint(payload)
	case rop == wire.RespBatch:
		o.seq, err = wire.DecodeBatch(payload, o.resVals, o.resOks)
	case rop == wire.RespScanChunk:
		var pb []byte
		if last, pb, err = wire.DecodeChunk(payload); err == nil {
			o.pairs = append(o.pairs, pb...)
		}
	}
	if err != nil {
		return err
	}
	if last {
		e.finish(i, nil, true)
	}
	return nil
}

// fail closes wc (if it is still current) and completes every queued
// and in-flight op with cause. In-flight ops count as sent unless the
// writer proved otherwise; an admission BUSY means the server read
// nothing at all.
func (e *conn) fail(wc *wireConn, cause error) {
	if e.wc != wc {
		return
	}
	e.wc = nil
	e.c.forget(wc.nc)
	if cause == errBusy {
		e.c.faults.busy.Add(1)
	}
	for i := range e.slots {
		if f := &e.slots[i]; f.id != 0 {
			e.finish(i, cause, !f.unsent)
		}
	}
	e.failQueued(cause)
}

// failQueued completes every queued op with cause; none of them left the
// client.
func (e *conn) failQueued(cause error) {
	for cls := range e.points {
		for _, o := range e.points[cls] {
			e.complete(o, cause, false)
		}
		clear(e.points[cls])
		e.points[cls] = e.points[cls][:0]
	}
	for _, o := range e.others {
		e.complete(o, cause, false)
	}
	clear(e.others)
	e.others = e.others[:0]
}
