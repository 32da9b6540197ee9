package client_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/wire"
)

// stragglerServer is a scripted stand-in for the server: GETs find
// key*3, PUTs report an insert, and on every connection the response to
// the first MGET frame is held back until at least holdFor later frames
// have been answered.
func stragglerServer(t *testing.T, holdFor int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveStraggler(nc, holdFor)
		}
	}()
	return ln.Addr().String()
}

func serveStraggler(nc net.Conn, holdFor int) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var hdr [wire.HeaderLen]byte
	var req wire.Request
	var held []byte // the withheld MGET response
	heldSeen, later := false, 0
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		id := binary.LittleEndian.Uint64(hdr[4:12])
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[:4])-(wire.HeaderLen-4))
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if err := wire.DecodeRequest(id, hdr[12], payload, &req); err != nil {
			return
		}
		var out []byte
		switch req.Op {
		case wire.OpTraceCtx:
			continue
		case wire.OpStats:
			out = wire.AppendRespStats(nil, id, wire.Stats{})
		case wire.OpGet:
			out = wire.AppendRespPoint(nil, id, req.Key*3, true)
		case wire.OpPut, wire.OpDelete:
			out = wire.AppendRespPoint(nil, id, 0, true)
		case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
			vals := make([]uint64, len(req.Keys))
			oks := make([]bool, len(req.Keys))
			for i, k := range req.Keys {
				oks[i] = true
				if req.Op == wire.OpMGet {
					vals[i] = k * 3
				}
			}
			out = wire.AppendRespBatch(nil, id, vals, oks)
			if req.Op == wire.OpMGet && !heldSeen {
				heldSeen, held = true, out
				continue
			}
		default:
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
		if held != nil {
			if later++; later >= holdFor {
				if _, err := nc.Write(held); err != nil {
					return
				}
				held = nil
			}
		}
	}
}

// TestMuxStragglerNotAliased: a response that arrives after 70 later
// frames were answered on the same Mux connection must still complete
// its own frame. The credit window bounds how many frames are in flight
// but not how far apart their ids are, so a table indexed by id modulo
// its size lets a later frame overwrite the straggler's entry; its
// caller then hangs and the connection is torn down under everyone
// else's in-flight mutations.
func TestMuxStragglerNotAliased(t *testing.T) {
	addr := stragglerServer(t, 70)
	m, err := client.DialMux(addr, client.MuxConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	keys := []uint64{11, 12, 13, 14}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		m.NewHandle().(dict.Batcher).FindBatch(keys, vals, found)
	}()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle().(client.TryHandle)
			for i := uint64(1); !stop.Load(); i++ {
				k := uint64(w)<<32 | i
				if _, _, err := h.TryInsert(k, k); err != nil {
					errc <- err
					return
				}
				if v, ok, err := h.TryFind(k); err != nil || !ok || v != k*3 {
					errc <- errors.Join(err, errors.New("wrong Find result"))
					return
				}
			}
		}(w)
	}

	select {
	case <-batchDone:
	case <-time.After(20 * time.Second):
		t.Fatal("FindBatch never completed: its straggling response matched no frame")
	}
	stop.Store(true)
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-time.After(20 * time.Second):
		t.Fatal("point ops hung after the straggler arrived")
	}
	close(errc)
	for err := range errc {
		t.Errorf("point op failed beside the straggler: %v", err)
	}
	for i, k := range keys {
		if !found[i] || vals[i] != k*3 {
			t.Errorf("FindBatch[%d] = %d,%v, want %d,true", i, vals[i], found[i], k*3)
		}
	}
	if fs := m.FaultStats(); fs.Ambiguous != 0 || fs.Redials != 0 {
		t.Errorf("fault-free run took the fault path: %+v", fs)
	}
}
