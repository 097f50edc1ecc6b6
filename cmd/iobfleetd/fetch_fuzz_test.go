package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"

	"wiban/internal/fleet"
	"wiban/internal/obs"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// shardTruth runs a small sweep (sampling series every seriesSeconds when
// positive) into a real store and returns its committed prefix — exactly
// what GET /api/sweeps/{id}/store serves from offset 0 — and every offset
// a replica may legitimately stop at: 0, the header end and each
// committed block end.
func shardTruth(tb testing.TB, seriesSeconds float64) ([]byte, []int64) {
	tb.Helper()
	spec := sweep.Spec{Wearers: 24, Seed: 3, DurSeconds: 1, BlockSize: 4, SeriesSeconds: seriesSeconds}
	if err := spec.Normalize(); err != nil {
		tb.Fatal(err)
	}
	fl, meta, err := spec.Build(&fleet.Stats{})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "truth.wtl")
	s, err := sweep.Open(fl, meta, path, false)
	if err != nil {
		tb.Fatal(err)
	}
	bounds := []int64{0, s.Store.Offset()}
	s.Store.OnCommit = func(_, _ int, size int64) { bounds = append(bounds, size) }
	if _, err := s.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw[:bounds[len(bounds)-1]], bounds
}

// The ways a fuzzed backend answers one store request; each request
// reads an op byte and two argument bytes from the fuzz script.
const (
	serveClean  = iota // the committed bytes from ?from=
	serveCut           // cut short at an argument-chosen length
	serveGarble        // right length, one byte flipped
	serveLong          // the committed bytes plus junk
)

// FuzzFetchShard drives fetchShard against a backend serving truncated,
// garbled and over-long store bodies. Whatever it is served, the local
// partial must stay a prefix of the true byte stream that ends on a
// frame boundary — damage is never appended for later bytes to land
// behind — and once the backend serves clean bytes the partial must
// complete.
func FuzzFetchShard(f *testing.F) {
	truth, bounds := shardTruth(f, 0)
	f.Add([]byte{serveClean, 0, 0})
	f.Add([]byte{serveCut, 0x01, 0x10})
	f.Add([]byte{serveGarble, 0x02, 0x40})
	f.Add([]byte{serveLong, 0x57, 0x42})
	f.Add([]byte{serveCut, 0x00, 0x30, serveGarble, 0x00, 0x09, serveLong, 0, 0, serveClean, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var mu sync.Mutex
		req, clean := 0, false
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			from, err := strconv.Atoi(r.URL.Query().Get("from"))
			if err != nil || from > len(truth) {
				http.Error(w, "bad from", http.StatusBadRequest)
				return
			}
			body := slices.Clone(truth[from:])
			mu.Lock()
			op, a, b := byte(serveClean), byte(0), byte(0)
			if i := 3 * req; !clean && i+2 < len(script) {
				op, a, b = script[i]%4, script[i+1], script[i+2]
			}
			req++
			mu.Unlock()
			at := int(a)<<8 | int(b)
			switch op {
			case serveCut:
				body = body[:at%(len(body)+1)]
			case serveGarble:
				if len(body) > 0 {
					body[at%len(body)] ^= a | 1
				}
			case serveLong:
				body = append(body, a, b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
			}
			w.Header().Set("X-Next-Wearer", "-1")
			w.Write(body)
		}))
		defer srv.Close()

		m := &manager{client: srv.Client(), metrics: &daemonMetrics{shardFetchBytes: new(obs.Counter)}}
		path := filepath.Join(t.TempDir(), "partial.wtl")
		var local int64
		fetch := func() {
			t.Helper()
			if n, _, err := m.fetchShard(srv.URL, "s000000", path, local); err == nil {
				local += n
			}
			got, err := os.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if int64(len(got)) != local || !bytes.Equal(got, truth[:min(local, int64(len(truth)))]) {
				t.Fatalf("partial holds %d bytes (local %d) that are not the true stream's prefix", len(got), local)
			}
			if !slices.Contains(bounds, local) {
				t.Fatalf("partial ends at %d, not on a frame boundary %v", local, bounds)
			}
		}
		for i := 0; i < min(len(script)/3, 16); i++ {
			fetch()
		}
		clean = true
		fetch()
		if local != int64(len(truth)) {
			t.Fatalf("clean fetch left the partial at %d of %d bytes", local, len(truth))
		}
	})
}

// TestPrepPartial pins the repair a coordinator applies to its partial
// copy of a shard store before replication resumes: it keeps the
// longest run of whole CRC-valid frames, so the partial stays a prefix
// of the true byte stream and fetching on from the returned offset
// appends exactly the missing bytes. A torn tail is cut to the last
// whole frame, even when that frame is a record block whose series
// frame is still missing: the next fetch from there starts with that
// series frame. A file without a valid header is removed, and no
// checkpoint sidecar survives either way.
func TestPrepPartial(t *testing.T) {
	truth, bounds := shardTruth(t, 0.5)
	hdrEnd, pair := bounds[1], bounds[2] // header end; end of the first record+series pair
	// recEnd is the end of the second pair's record frame: its frame
	// header carries the payload length, and the CRC trails the payload.
	recEnd := pair + 8 + int64(binary.LittleEndian.Uint32(truth[pair+4:])) + 4
	if recEnd >= bounds[3] {
		t.Fatalf("record frame ends at %d, not inside its pair [%d,%d)", recEnd, pair, bounds[3])
	}
	badHeader := slices.Clone(truth[:pair])
	badHeader[hdrEnd-2] ^= 0x01
	for _, tc := range []struct {
		name string
		data []byte // nil: no partial file at all
		want int64  // trusted length; 0 means the file must be gone
	}{
		{"complete", truth, int64(len(truth))},
		{"pair boundary", truth[:pair], pair},
		{"garbage tail", append(slices.Clone(truth[:pair]), "WBLK\xff\xff not a frame"...), pair},
		{"cut record frame", truth[:pair+9], pair},
		{"record frame without series", truth[:recEnd], recEnd},
		{"record frame with cut series", truth[:recEnd+7], recEnd},
		{"header only", truth[:hdrEnd], hdrEnd},
		{"cut header", truth[:hdrEnd-1], 0},
		{"bad header", badHeader, 0},
		{"empty", []byte{}, 0},
		{"missing", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.shard0.wtl")
			if tc.data != nil {
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// A stale sidecar must never survive: the supervisor appends
			// raw fetched bytes past whatever offset it records.
			if err := os.WriteFile(telemetry.CheckpointPath(path), []byte(`{"offset":1}`), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := prepPartial(path); got != tc.want {
				t.Fatalf("prepPartial = %d, want %d", got, tc.want)
			}
			if _, err := os.Stat(telemetry.CheckpointPath(path)); !os.IsNotExist(err) {
				t.Errorf("checkpoint sidecar left behind (stat: %v)", err)
			}
			got, err := os.ReadFile(path)
			if tc.want == 0 {
				if !os.IsNotExist(err) {
					t.Fatalf("unusable partial not removed (%d bytes, err %v)", len(got), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, truth[:tc.want]) {
				t.Fatalf("repaired partial (%d bytes) is not the true stream's %d-byte prefix", len(got), tc.want)
			}
		})
	}
}
