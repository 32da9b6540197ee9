package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	abtree "repro"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dict"
	"repro/internal/server"
	"repro/internal/wire"
)

// inflight publishes each caller's traced operation so the hosted-dict
// decorators on the primary and the follower can name their parent
// span: a server-side tree call whose (op, key) matches a published
// slot was caused by that caller's router call.
type inflight struct {
	slots [callers]struct {
		opKey   atomic.Uint64 // op<<56 | key; 0 when idle
		span    atomic.Uint64
		dictEnd atomic.Int64 // end of the primary's tree call
		_       [40]byte
	}
}

func packOpKey(op opKind, key uint64) uint64 { return uint64(op+1)<<56 | key }

// match returns the slot and span of the traced call for (op, key), or
// -1 when none is in flight (or the pair is ambiguous between callers).
func (f *inflight) match(op opKind, key uint64) (int, uint64) {
	want := packOpKey(op, key)
	slot := -1
	for i := range f.slots {
		if f.slots[i].opKey.Load() == want {
			if slot >= 0 {
				return -1, 0
			}
			slot = i
		}
	}
	if slot < 0 {
		return -1, 0
	}
	return slot, f.slots[slot].span.Load()
}

// timedDict is the benchmark's hosted-dict decorator, passed to the
// server as its Builder. It times the tree calls of traced operations.
type timedDict struct {
	t    *abtree.Tree
	name string // span name of one tree call
	f    *inflight
	rec  *recorder
	// primary marks the primary's tree, whose mutation end starts the
	// commit wait.
	primary bool
}

func (d *timedDict) NewHandle() dict.Handle { return &timedHandle{d: d, h: d.t.NewHandle()} }
func (d *timedDict) KeySum() uint64         { return d.t.KeySum() }

type timedHandle struct {
	d *timedDict
	h *abtree.Handle
}

func (h *timedHandle) Find(key uint64) (uint64, bool) {
	slot, parent := h.d.f.match(opFind, key)
	if parent == 0 {
		return h.h.Find(key)
	}
	t0 := now()
	v, ok := h.h.Find(key)
	h.d.record(slot, parent, t0, false)
	return v, ok
}

func (h *timedHandle) Insert(key, val uint64) (uint64, bool) {
	slot, parent := h.d.f.match(opInsert, key)
	if parent == 0 {
		return h.h.Insert(key, val)
	}
	t0 := now()
	v, ok := h.h.Insert(key, val)
	h.d.record(slot, parent, t0, true)
	return v, ok
}

func (h *timedHandle) Delete(key uint64) (uint64, bool) {
	slot, parent := h.d.f.match(opDelete, key)
	if parent == 0 {
		return h.h.Delete(key)
	}
	t0 := now()
	v, ok := h.h.Delete(key)
	h.d.record(slot, parent, t0, true)
	return v, ok
}

func (d *timedDict) record(slot int, parent uint64, t0 int64, mutation bool) {
	t1 := now()
	d.rec.add(span{id: newSpanID(), parent: parent, name: d.name, start: t0, end: t1})
	if d.primary && mutation {
		d.f.slots[slot].dictEnd.Store(t1)
	}
}

// remoteSystem is a sync-1 replicated partition — a primary and a
// follower server.Server hosting Elim-ABtrees on 127.0.0.1 — driven
// through a one-partition cluster.Dict router.
type remoteSystem struct {
	prim, fol       *server.Server
	primT, folT     *abtree.Tree
	router          *cluster.Dict
	f               *inflight
	rec             *recorder
	failoversBefore uint64
}

// remoteName is the hosted structure's registry-style name.
const remoteName = "Elim-ABtree"

func setupRemote(keyRange, seed uint64, rec *recorder) (system, uint64, error) {
	s := &remoteSystem{f: &inflight{}, rec: rec}
	s.primT, s.folT = abtree.NewElim(), abtree.NewElim()
	builder := func(t *abtree.Tree, name string, primary bool) server.Builder {
		d := &timedDict{t: t, name: name, f: s.f, rec: s.rec, primary: primary}
		return func(string, uint64) dict.Dict { return d }
	}
	var err error
	s.fol, err = server.New(builder(s.folT, "server.repl_apply", false), remoteName, keyRange, server.Config{Follower: true})
	if err != nil {
		return nil, 0, fmt.Errorf("follower: %w", err)
	}
	faddr, err := s.fol.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("follower: %w", err)
	}
	s.prim, err = server.New(builder(s.primT, "server.dict", true), remoteName, keyRange,
		server.Config{Followers: []string{faddr.String()}, AckFollowers: 1})
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("primary: %w", err)
	}
	paddr, err := s.prim.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("primary: %w", err)
	}
	s.router, err = cluster.New(cluster.Config{
		Partitions: []cluster.Partition{{Primary: paddr.String(), Followers: []string{faddr.String()}}},
		KeyRange:   keyRange,
	})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	sum, err := prefill(keyRange, seed, func() func([]uint64, []bool) error {
		h := s.router.NewHandle().(client.TryHandle)
		return func(keys []uint64, ok []bool) error {
			for i, k := range keys {
				_, landed, err := h.TryInsert(k, k)
				if err != nil {
					return err
				}
				ok[i] = landed
			}
			return nil
		}
	})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.failoversBefore = s.router.Failovers()
	return s, sum, nil
}

func (s *remoteSystem) newCaller(i int) caller {
	return &remoteCaller{h: s.router.NewHandle().(client.TryHandle), slot: i, s: s}
}

func (s *remoteSystem) spanName(opKind) string { return "client.call" }

func (s *remoteSystem) counters() map[string]float64 {
	return map[string]float64{"cluster.failovers": float64(s.router.Failovers())}
}

func (s *remoteSystem) keys() int { return s.primT.Len() }

// verify runs once every caller returned. With sync-1 every acked
// mutation was applied on the follower before its ack, so the replicas
// must agree exactly.
func (s *remoteSystem) verify(wantSum uint64) ([]gate, map[string]float64) {
	return []gate{
		sumGate("keysum", wantSum, s.router.KeySum()),
		sumGate("follower.keysum", s.primT.KeySum(), s.folT.KeySum()),
		intGate("follower.len", s.primT.Len(), s.folT.Len()),
		errGate("primary.validate", s.primT.Validate()),
		errGate("follower.validate", s.folT.Validate()),
		intGate("cluster.failovers", 0, int(s.router.Failovers()-s.failoversBefore)),
	}, nil
}

func (s *remoteSystem) close() {
	if s.router != nil {
		s.router.Close()
	}
	if s.prim != nil {
		s.prim.Close()
	}
	if s.fol != nil {
		s.fol.Close()
	}
}

// wireReps is how many times a traced op's frames are re-encoded and
// re-decoded per wire span: one encode is a few tens of nanoseconds, too
// close to the clock's own cost to time alone.
const wireReps = 32

// remoteCaller drives one router handle with the Try API, so router
// errors and ambiguous mutations come back as errors, not panics.
type remoteCaller struct {
	h    client.TryHandle
	slot int
	s    *remoteSystem

	buf []byte
	req wire.Request
}

var errWrongValue = errors.New("reply value is not the key")

func (c *remoteCaller) do(op opKind, key uint64) (int, error) {
	switch op {
	case opFind:
		v, ok, err := c.h.TryFind(key)
		if err == nil && ok && v != key {
			err = fmt.Errorf("find %d: %w", key, errWrongValue)
		}
		return 0, err
	case opInsert:
		v, ok, err := c.h.TryInsert(key, key)
		if err == nil && !ok && v != key {
			err = fmt.Errorf("insert %d: %w", key, errWrongValue)
		}
		return landed(ok), err
	}
	v, ok, err := c.h.TryDelete(key)
	if err == nil && ok && v != key {
		err = fmt.Errorf("delete %d: %w", key, errWrongValue)
	}
	return landed(ok), err
}

func (c *remoteCaller) before(op opKind, key uint64, id uint64) {
	sl := &c.s.f.slots[c.slot]
	sl.span.Store(id)
	sl.dictEnd.Store(0)
	sl.opKey.Store(packOpKey(op, key))
}

// after closes the traced op: it records the commit wait (from the
// primary's tree mutation returning to the call returning) and times
// the wire encode and decode of the op's request and reply frames.
func (c *remoteCaller) after(op opKind, key uint64, id uint64, end int64) {
	sl := &c.s.f.slots[c.slot]
	sl.opKey.Store(0)
	if de := sl.dictEnd.Load(); de != 0 && op != opFind {
		c.s.rec.add(span{id: newSpanID(), parent: id, name: "server.repl_ack", start: de, end: end})
	}
	code := byte(wire.OpGet)
	switch op {
	case opInsert:
		code = wire.OpPut
	case opDelete:
		code = wire.OpDelete
	}
	t0 := now()
	for r := 0; r < wireReps; r++ {
		c.buf = wire.AppendPoint(c.buf[:0], id, code, key, key)
		c.buf = wire.AppendRespPointSeq(c.buf, id, key, true, id)
	}
	t1 := now()
	reqLen := len(c.buf) - (wire.HeaderLen + 17)
	for r := 0; r < wireReps; r++ {
		if err := wire.DecodeRequest(id, code, c.buf[wire.HeaderLen:reqLen], &c.req); err != nil {
			panic(err)
		}
		if _, _, _, err := wire.DecodePoint(c.buf[reqLen+wire.HeaderLen:]); err != nil {
			panic(err)
		}
	}
	t2 := now()
	c.s.rec.add(span{id: newSpanID(), parent: id, name: "wire.encode", start: t0, end: t1})
	c.s.rec.add(span{id: newSpanID(), parent: id, name: "wire.decode", start: t1, end: t2})
}
