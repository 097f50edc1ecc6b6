// Package sweep owns the population sweep: its one definition and its
// one run path. Both front ends are thin callers of it — cmd/iobfleet
// maps its flags to a Spec, cmd/iobfleetd decodes, persists and
// dispatches the same Spec as JSON — so a sweep described the same way
// writes the same store byte for byte whichever front end ran it.
//
// Spec is the definition: Normalize validates it and resolves density
// into cells, and Build assembles the fleet.Fleet (generator, spectrum
// coupling, shard range) and the telemetry.Meta that identifies its
// store.
//
// Split tiles the population into shard specs: the same sweep over
// contiguous wearer ranges. A coupled shard runs phase 1 over the whole
// population itself, exactly as an unsharded or resumed run does, so
// its store is the matching slice of the unsharded one and iobfleetd
// only dispatches the shard specs and merges their stores.
//
// Open and Run are the path. Open creates the telemetry store, or
// resumes a checkpointed one in a single pass, telemetry.Resume: the
// store's meta must describe the same sweep (adopting an older format
// version when it can still represent it, telemetry.ErrMismatch
// otherwise, with the store left untouched), the walk that verifies its
// committed records feeds them to the StreamAggregator, and the fleet
// starts at the checkpoint. Run streams
// the remaining wearers into store and aggregator and stops at the next
// record boundary once its context ends, keeping the checkpoint for the
// next Open to resume. A resumed sweep's report and store are
// bit-identical to an uninterrupted run.
package sweep

import (
	"context"
	"errors"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
)

// Sweep is an opened sweep: the aggregator holding every record before
// the fleet's first unsimulated wearer, and the store the records stream
// into (nil when there is none).
type Sweep struct {
	Agg   *fleet.StreamAggregator
	Store *telemetry.Writer
	f     *fleet.Fleet
}

// Open prepares f to run into the telemetry store at path. With resume
// false it creates the store from meta; with resume true it resumes the
// checkpointed store there with telemetry.Resume, which refuses a store
// that does not describe meta's sweep (block size and format version are
// the store's to keep) and otherwise feeds its committed records to the
// aggregator in the same walk, and moves f.Start to the checkpoint. An
// empty path runs without a store.
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
	store, err := telemetry.Resume(path, meta, s.Agg.Consume)
	if err != nil {
		return nil, err
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
