package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"

	"wiban/internal/obs"
	"wiban/internal/telemetry"
)

// newMux wires the daemon's HTTP surface:
//
//	GET    /healthz                   readiness: 200 while accepting work, 503 once draining
//	GET    /metrics                   Prometheus text exposition
//	POST   /api/sweeps                submit a sweep (sweepSpec JSON) → 202 + state
//	GET    /api/sweeps                all sweeps, submission order
//	GET    /api/sweeps/{id}           one sweep's state
//	DELETE /api/sweeps/{id}           cancel: queued unqueues, running checkpoints-and-parks
//	GET    /api/sweeps/{id}/progress  NDJSON stream riding the block-commit tick
//	POST   /api/backends              register (or heartbeat) a backend {"url": ...}
//	GET    /api/backends              the membership table with per-entry liveness
//	DELETE /api/backends?url=...      deregister a backend
//	GET    /api/sweeps/{id}/store     shard protocol: committed store bytes from an offset
//	GET    /api/sweeps/{id}/shards/{k}/store  coordinator's partial shard copy (seed store)
//	GET    /debug/pprof/...           Go profiling endpoints
func newMux(m *manager, reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Health is readiness, not liveness: a draining daemon 503s POSTs,
		// so it must 503 here too — coordinators select backends by this
		// probe, and "healthy but refuses work" would stall shard dispatch.
		if m.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("POST /api/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec sweepSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad sweep spec: "+err.Error())
			return
		}
		st, err := m.submit(spec)
		switch {
		case errors.Is(err, errDrained):
			httpError(w, http.StatusServiceUnavailable, "draining; resubmit to the next process")
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("GET /api/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.list())
	})
	mux.HandleFunc("GET /api/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		// The process nonce: a coordinator polling a shard sub-sweep reads
		// a changed instance as "this backend died and came back", however
		// briefly the blink lasted.
		w.Header().Set("X-Iobfleetd-Instance", m.instance)
		writeJSON(w, http.StatusOK, sw.snapshot())
	})
	mux.HandleFunc("DELETE /api/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Cancellation works on a draining daemon too: a DELETE racing a
		// SIGTERM should still park the sweep terminally rather than let
		// the next process resume work nobody wants.
		st, err := m.cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, errNoSweep):
			httpError(w, http.StatusNotFound, "no such sweep")
		case errors.Is(err, errTerminal):
			httpError(w, http.StatusConflict, "sweep already "+st.Status)
		case err != nil:
			httpError(w, http.StatusInternalServerError, err.Error())
		default:
			writeJSON(w, http.StatusOK, st)
		}
	})
	mux.HandleFunc("POST /api/backends", func(w http.ResponseWriter, r *http.Request) {
		// Registration doubles as the heartbeat. A draining coordinator
		// refuses: it is about to exit, and the backend's next beat will
		// land on the restarted process (which reloads the persisted table
		// anyway).
		if m.isDraining() {
			httpError(w, http.StatusServiceUnavailable, "draining; re-register with the next process")
			return
		}
		var reg struct {
			URL string `json:"url"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reg); err != nil {
			httpError(w, http.StatusBadRequest, "bad registration: "+err.Error())
			return
		}
		ms, err := m.members.register(reg.URL)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, ms)
	})
	mux.HandleFunc("GET /api/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.members.list())
	})
	mux.HandleFunc("DELETE /api/backends", func(w http.ResponseWriter, r *http.Request) {
		if !m.members.deregister(r.URL.Query().Get("url")) {
			httpError(w, http.StatusNotFound, "no such backend")
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /api/sweeps/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		streamProgress(w, r, sw)
	})
	mux.HandleFunc("GET /api/sweeps/{id}/store", func(w http.ResponseWriter, r *http.Request) {
		// The shard protocol's replication feed: the store's committed bytes
		// from ?from= (default 0) to the checkpoint. Safe against a live
		// writer — the checkpoint bounds the read, and committed bytes never
		// change — and never serves the trailing index frame, which lies
		// past the final checkpoint by design.
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		path := m.storePath(sw.snapshot().ID)
		_, off, next, err := telemetry.Committed(path)
		if err != nil {
			httpError(w, http.StatusNotFound, "no committed store yet: "+err.Error())
			return
		}
		from := int64(0)
		if q := r.URL.Query().Get("from"); q != "" {
			if from, err = strconv.ParseInt(q, 10, 64); err != nil || from < 0 {
				httpError(w, http.StatusBadRequest, "bad from offset")
				return
			}
		}
		if from > off {
			from = off // nothing new; serve an empty range rather than error
		}
		f, err := os.Open(path)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Committed-Offset", strconv.FormatInt(off, 10))
		w.Header().Set("X-Next-Wearer", strconv.Itoa(next))
		w.Header().Set("X-Sweep-Status", sw.snapshot().Status)
		w.Header().Set("Content-Length", strconv.FormatInt(off-from, 10))
		io.Copy(w, io.NewSectionReader(f, from, off-from))
	})
	mux.HandleFunc("GET /api/sweeps/{id}/shards/{k}/store", func(w http.ResponseWriter, r *http.Request) {
		// The coordinator's partial copy of shard k's store — the seed a
		// replacement backend resumes from. Served whole and unvalidated:
		// the receiver's scan-resume truncates any torn tail.
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		k, err := strconv.Atoi(r.PathValue("k"))
		if err != nil || k < 0 {
			httpError(w, http.StatusBadRequest, "bad shard index")
			return
		}
		f, err := os.Open(m.shardPath(sw.snapshot().ID, k))
		if err != nil {
			httpError(w, http.StatusNotFound, "no partial store for this shard")
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	})
	// pprof must be mounted by hand: the stdlib's init() registers on
	// http.DefaultServeMux, which this daemon deliberately does not serve.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// streamProgress serves one sweep's NDJSON progress stream: the current
// state immediately, then one line per committed telemetry block (and
// per status change), flushed as they happen. The stream ends with a
// line carrying "final": true when the sweep reaches a resting state —
// done, failed, or interrupted by a drain — or when the client leaves.
// Intermediate ticks are lossy under a slow reader (each line is a full
// snapshot, so the newest supersedes anything shed); the final line is
// guaranteed.
func streamProgress(w http.ResponseWriter, r *http.Request, sw *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sub := sw.subscribe()
	defer sw.unsubscribe(sub)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub:
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Final {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
