// Package sweep owns the population sweep: its one definition and its
// one run path. Both front ends are thin callers of it — cmd/iobfleet
// maps its flags to a Spec, cmd/iobfleetd decodes, persists and
// dispatches the same Spec as JSON — so a sweep described the same way
// writes the same store byte for byte whichever front end ran it.
//
// Spec is the definition: Normalize validates it and resolves density
// into cells, and Build assembles the fleet.Fleet (generator, spectrum
// coupling, shard range, presolved phase-1 results) and the
// telemetry.Meta that identifies its store.
//
// Split, Gather and Presolve are the shard protocol: Split tiles the
// population into shard specs, Gather runs a shard's phase-1 load
// gather, and Presolve merges the gathers, solves the equilibrium once
// and attaches each shard's phase-1 results. iobfleetd only carries
// their values between processes.
//
// Open and Run are the path. Open creates the telemetry store, or
// resumes a checkpointed one: the store's meta must describe the same
// sweep (adopting an older format version when it can still represent
// it, ErrMismatch otherwise), its committed records replay into the
// StreamAggregator, and the fleet starts at the checkpoint. Run streams
// the remaining wearers into store and aggregator and stops at the next
// record boundary once its context ends, keeping the checkpoint for the
// next Open to resume. A resumed sweep's report and store are
// bit-identical to an uninterrupted run.
package sweep

import (
	"context"
	"errors"
	"fmt"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
)

// ErrMismatch reports a store that describes a different sweep than the
// one being resumed into it.
var ErrMismatch = errors.New("store describes a different sweep")

// Sweep is an opened sweep: the aggregator holding every record before
// the fleet's first unsimulated wearer, and the store the records stream
// into (nil when there is none).
type Sweep struct {
	Agg   *fleet.StreamAggregator
	Store *telemetry.Writer
	f     *fleet.Fleet
}

// Open prepares f to run into the telemetry store at path. With resume
// false it creates the store from meta; with resume true it reopens the
// checkpointed store there, guards that it describes meta's sweep (block
// size and format version are the store's to keep), replays its
// committed records into the aggregator and moves f.Start to the
// checkpoint. An empty path runs without a store.
func Open(f *fleet.Fleet, meta telemetry.Meta, path string, resume bool) (*Sweep, error) {
	s := &Sweep{Agg: fleet.NewStreamAggregator(f.Span), f: f}
	if path == "" {
		return s, nil
	}
	if !resume {
		store, err := telemetry.Create(path, meta)
		if err != nil {
			return nil, err
		}
		s.Store = store
		return s, nil
	}
	store, err := telemetry.Resume(path)
	if err != nil {
		return nil, err
	}
	got := store.Meta()
	meta.BlockSize = got.BlockSize
	meta.Version = telemetry.AdoptVersion(got.Version, meta.Cells, meta.Feedback, meta.Series())
	if got != meta {
		store.Abort()
		return nil, fmt.Errorf("%s: %w:\n  store: %+v\n  spec:  %+v", path, ErrMismatch, got, meta)
	}
	r, err := telemetry.Open(path)
	if err != nil {
		store.Abort()
		return nil, err
	}
	replayed, err := fleet.Replay(r, s.Agg)
	r.Close()
	if err != nil {
		store.Abort()
		return nil, err
	}
	if first, _ := got.Range(); first+replayed != store.NextWearer() {
		store.Abort()
		return nil, fmt.Errorf("store %s replayed %d records from wearer %d but checkpoint says next is %d",
			path, replayed, first, store.NextWearer())
	}
	f.Start = store.NextWearer()
	s.Store = store
	return s, nil
}

// Run streams the fleet's remaining wearers into the store (first, so
// the committed prefix on disk never runs ahead of the report) and the
// aggregator. Once ctx ends, the sweep stops at the next record
// boundary: the store is aborted with its checkpoint intact and Run
// returns context.Cause(ctx). Any other failure aborts the store too; on
// success the store is closed.
func (s *Sweep) Run(ctx context.Context) (fleet.Perf, error) {
	var sink fleet.Sink = s.Agg
	if s.Store != nil {
		sink = fleet.Tee(s.Store, s.Agg)
	}
	done := ctx.Done()
	perf, err := s.f.Stream(fleet.SinkFunc(func(rec telemetry.Record) error {
		select {
		case <-done:
			return context.Cause(ctx)
		default:
			return sink.Consume(rec)
		}
	}))
	if err != nil {
		if s.Store != nil {
			s.Store.Abort()
		}
		if cause := context.Cause(ctx); cause != nil && errors.Is(err, cause) {
			return perf, cause
		}
		return perf, err
	}
	if s.Store != nil {
		if err := s.Store.Close(); err != nil {
			return perf, err
		}
	}
	return perf, nil
}
