// Command iobtrace inspects, verifies and re-aggregates fleet telemetry
// stores written by iobfleet -out (see wiban/internal/telemetry for the
// format).
//
// Usage:
//
//	iobtrace info   sweep.wtl             # header, blocks, compression
//	iobtrace verify sweep.wtl             # CRC-scan every physical block
//	iobtrace report sweep.wtl             # re-derive the aggregate report
//	iobtrace cells  sweep.wtl             # per-cell interference report
//	iobtrace wearer -w 123 sweep.wtl      # dump one wearer's record
//	iobtrace query -metric charge -agg p10 sweep.wtl          # aggregate the time series
//	iobtrace query -metric per -from 100 -to 200 -cell 3 -agg avg sweep.wtl
//
// `report` replays the stored records through the same streaming
// aggregator the live sweep used, so its fingerprint matches the one
// iobfleet printed — the store is a complete, portable witness of the
// run. `verify` audits the physical file in strict mode: it ignores the
// checkpoint sidecar (which a reader normally trusts to bound the
// committed prefix) and exits non-zero if any byte of the file fails its
// frame CRC — including damage a stale checkpoint would hide and torn
// tails a kill left behind. `cells` renders the spectrum-coupled sweep's
// per-cell congestion table (iobfleet -cells/-density): wearers, foreign
// offered load, the equivalent RF link-budget penalty, delivery and
// death counts per cell; on a feedback-coupled store (iobfleet
// -feedback, format v2) it adds the equilibrium retry-inflated load next
// to the first-order one plus each cell's fixed-point iteration count,
// while pre-feedback stores keep the original columns.
//
// `query` aggregates the per-node time series of a series-enabled store
// (iobfleet -series, format v3). -metric picks the sampled column
// (charge, queue, per, collisions), -from/-to bound the sample time in
// simulated seconds (inclusive; -to 0 leaves the range open), -cell and
// -node restrict the population (-1 matches all), and -agg picks the
// aggregation: sum, avg, count, min, max or pNN for an exact percentile
// (e.g. p99). A completely written store is queried through its trailing
// block index, so narrow time or cell ranges read only the overlapping
// blocks; a store whose index is missing (killed mid-sweep) degrades to
// a sequential scan. NaN samples — windows in which a node never
// transmitted — are reported as excluded gaps, never folded into the
// aggregate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"wiban/internal/channel"
	"wiban/internal/compress"
	"wiban/internal/fleet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: iobtrace <info|verify|report|cells|wearer|query> [flags] <store.wtl>\n")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = withStore(cmd, args, nil, telemetry.Open, info)
	case "verify":
		// Strict open: audit every physical byte, trust no checkpoint. A
		// CRC-invalid file must exit non-zero even when the header parses
		// and a (possibly stale) sidecar vouches for a shorter prefix.
		err = withStore(cmd, args, nil, telemetry.OpenStrict, verify)
	case "report":
		err = withStore(cmd, args, nil, telemetry.Open, report)
	case "cells":
		err = withStore(cmd, args, nil, telemetry.Open, cells)
	case "wearer":
		var w int
		err = withStore(cmd, args, func(fs *flag.FlagSet) {
			fs.IntVar(&w, "w", 0, "wearer index to dump")
		}, telemetry.Open, func(r *telemetry.Reader) error { return wearer(r, w) })
	case "query":
		err = query(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobtrace: %v\n", err)
		os.Exit(1)
	}
}

// withStore parses the subcommand's flags, opens the single positional
// store argument through the given opener and hands the reader to fn.
func withStore(cmd string, args []string, defineFlags func(*flag.FlagSet),
	open func(string) (*telemetry.Reader, error), fn func(*telemetry.Reader) error) error {
	fs := flag.NewFlagSet("iobtrace "+cmd, flag.ExitOnError)
	if defineFlags != nil {
		defineFlags(fs)
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	r, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer r.Close()
	return fn(r)
}

func info(r *telemetry.Reader) error {
	m := r.Meta()
	if err := r.EachRecord(keepNone); err != nil {
		return err
	}
	n := r.Records()
	first, end := m.Range()
	fmt.Printf("telemetry store: %d/%d wearers in %d blocks (block size %d)\n",
		n, end-first, r.Blocks(), m.BlockSize)
	fmt.Printf("  sweep:       seed %d, %v per wearer\n", m.FleetSeed, units.Duration(m.SpanSeconds))
	if first != 0 || end != m.Wearers {
		// A shard store: a contiguous slice of a larger sweep, carrying its
		// absolute wearer range so seeds and cell placement stay global.
		fmt.Printf("  shard:       wearers [%d, %d) of %d\n", first, end, m.Wearers)
	}
	if m.Scenario != "" {
		fmt.Printf("  scenario:    %s\n", m.Scenario)
	}
	if m.Cells > 0 {
		mode := "first-order"
		if m.Feedback {
			mode = "feedback equilibrium"
		}
		fmt.Printf("  spectrum:    coupled, %d cells, %s (format v%d)\n", m.Cells, mode, m.Version)
	}
	if m.Series() {
		fmt.Printf("  series:      %gs cadence, %d samples (format v%d)\n",
			m.SeriesCadenceSeconds, r.SeriesPoints(), m.Version)
	}
	fmt.Printf("  checkpoint:  valid=%t  complete=%t\n", r.Checkpointed(), n == end-first)
	if n == 0 {
		// No committed records: there is nothing to compress, so the usual
		// ratio line would misreport "0.00x compression" for a perfectly
		// healthy header-only store.
		fmt.Printf("  size:        %d bytes on disk (header only, no committed records)\n", r.StoredBytes())
		return nil
	}
	fmt.Printf("  size:        %d bytes on disk, %d raw (%.2fx compression, %.1f B/wearer)\n",
		r.StoredBytes(), r.RawBytes(),
		compress.Ratio(int(r.RawBytes()), int(r.StoredBytes())), float64(r.StoredBytes())/float64(n))
	return nil
}

func verify(r *telemetry.Reader) error {
	// The reader is strict (OpenStrict): any damaged, torn or
	// out-of-place frame — anywhere in the physical file — surfaces as a
	// hard error from the walk, never as a silent truncation.
	if err := r.EachRecord(keepNone); err != nil {
		return fmt.Errorf("block %d: %w", r.Blocks(), err)
	}
	n := r.Records()
	fmt.Printf("ok: %d blocks, %d records, every CRC verified\n", r.Blocks(), n)
	m := r.Meta()
	if first, end := m.Range(); n < end-first {
		fmt.Printf("note: sweep incomplete (%d/%d wearers) — finish it with iobfleet -resume\n", n, end-first)
	}
	return nil
}

func report(r *telemetry.Reader) error {
	agg := fleet.NewStreamAggregator(units.Duration(r.Meta().SpanSeconds))
	n, err := fleet.Replay(r, agg)
	if err != nil {
		return err
	}
	rep := agg.Report()
	fmt.Println(rep)
	m := r.Meta()
	if first, end := m.Range(); n < end-first {
		fmt.Printf("  (partial: %d/%d wearers committed)\n", n, end-first)
	}
	fmt.Printf("  fingerprint %s (seed %d)\n", rep.Fingerprint()[:16], r.Meta().FleetSeed)
	return nil
}

// cells renders the per-cell interference table of a spectrum-coupled
// sweep: who shared a cell, how loud it was, and what that did to
// delivery. The dB column translates each cell's mean foreign load into
// the equivalent RF link-budget penalty via the load-aware congestion
// curve (wiban/internal/channel). On a feedback-coupled (format v2)
// store two extra columns show the first-order and equilibrium loads
// side by side plus each cell's fixed-point round count; a pre-feedback
// store renders the original table.
func cells(r *telemetry.Reader) error {
	m := r.Meta()
	agg := fleet.NewStreamAggregator(units.Duration(m.SpanSeconds))
	n, err := fleet.Replay(r, agg)
	if err != nil {
		return err
	}
	rep := agg.Report()
	if len(rep.Cells) == 0 {
		return fmt.Errorf("store holds no cell data — an uncoupled sweep (rerun iobfleet with -cells or -density)")
	}
	path := channel.DefaultBLEPath()
	fmt.Printf("spectrum cells: %d populated of %d (%d wearers, %d nodes)\n",
		len(rep.Cells), m.Cells, n, rep.Nodes)
	if m.Feedback {
		fmt.Printf("%6s %8s %6s %12s %9s %6s %9s %10s %6s\n",
			"cell", "wearers", "nodes", "foreign[erl]", "eq[erl]", "iters", "rise[dB]", "delivery", "died")
	} else {
		fmt.Printf("%6s %8s %6s %12s %9s %10s %6s\n",
			"cell", "wearers", "nodes", "foreign[erl]", "rise[dB]", "delivery", "died")
	}
	for _, c := range rep.Cells {
		// CongestionLossDB wants the band-busy fraction, not offered
		// load: an unslotted channel offered G erlangs is busy 1−e^(−G)
		// of the time, which keeps the column discriminating well past
		// G = 1 instead of pinning at the curve's saturation clamp. On a
		// feedback store the equilibrium load is the better congestion
		// estimate, so the dB column uses it.
		load := c.MeanForeignLoad
		if m.Feedback {
			load = c.MeanEqForeignLoad
		}
		busy := 1 - math.Exp(-load)
		if m.Feedback {
			fmt.Printf("%6d %8d %6d %12.4f %9.4f %6d %9.2f %10.4f %6d\n",
				c.Cell, c.Wearers, c.Nodes, c.MeanForeignLoad, c.MeanEqForeignLoad,
				c.FeedbackIters, path.CongestionLossDB(busy), c.MeanDelivery, c.Died)
		} else {
			fmt.Printf("%6d %8d %6d %12.4f %9.2f %10.4f %6d\n",
				c.Cell, c.Wearers, c.Nodes, c.MeanForeignLoad,
				path.CongestionLossDB(busy), c.MeanDelivery, c.Died)
		}
	}
	return nil
}

// query aggregates a series-enabled store's samples; unlike the other
// subcommands it drives telemetry.QueryStore by path so the block index
// can prune the read set instead of streaming every record.
func query(args []string) error {
	fs := flag.NewFlagSet("iobtrace query", flag.ExitOnError)
	metric := fs.String("metric", "charge", "series column: charge, queue, per or collisions")
	from := fs.Float64("from", 0, "inclusive lower sample-time bound in simulated seconds")
	to := fs.Float64("to", 0, "inclusive upper sample-time bound in simulated seconds (0 = open)")
	cell := fs.Int("cell", -1, "restrict to wearers in this spectrum cell (-1 = all)")
	node := fs.Int("node", -1, "restrict to this node index within each wearer (-1 = all)")
	agg := fs.String("agg", "avg", "aggregation: sum, avg, count, min, max or pNN (exact percentile)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	stats, err := telemetry.QueryStore(fs.Arg(0), telemetry.Query{
		Metric: *metric,
		FromMS: int64(math.Round(*from * 1000)),
		ToMS:   int64(math.Round(*to * 1000)),
		Cell:   *cell,
		Node:   *node,
	})
	if err != nil {
		return err
	}
	var val float64
	switch {
	case *agg == "sum":
		val = stats.Sum
	case *agg == "avg":
		val = stats.Mean()
	case *agg == "count":
		val = float64(stats.Points)
	case *agg == "min":
		val = stats.Min
	case *agg == "max":
		val = stats.Max
	case len(*agg) > 1 && (*agg)[0] == 'p':
		pct, perr := strconv.ParseFloat((*agg)[1:], 64)
		if perr != nil || pct < 0 || pct > 100 {
			return fmt.Errorf("bad percentile %q (want p0..p100)", *agg)
		}
		val = stats.Percentile(pct)
	default:
		return fmt.Errorf("unknown aggregation %q (want sum, avg, count, min, max or pNN)", *agg)
	}
	fmt.Printf("%s(%s) = %g\n", *agg, *metric, val)
	fmt.Printf("  samples: %d matched, %d gap windows excluded\n", stats.Points, stats.Gaps)
	return nil
}

// keepNone is the record sink of a walk that wants only the reader's
// totals or its verdict.
func keepNone(telemetry.Record) error { return nil }

// errFound stops wearer's walk at the wearer it dumped.
var errFound = errors.New("wearer found")

// wearer dumps one wearer's record. It prints no samples, so it walks
// the store without building them.
func wearer(r *telemetry.Reader, w int) error {
	err := r.EachRecord(func(rec telemetry.Record) error {
		if rec.Wearer != w {
			return nil
		}
		fmt.Printf("wearer %d: %d events, %d hub rx bits, hub utilization %.4f, %d nodes\n",
			rec.Wearer, rec.Events, rec.HubRxBits, rec.HubUtilization, len(rec.Nodes))
		for i, n := range rec.Nodes {
			fmt.Printf("  node %d: %d gen / %d del / %d drop (%d tx, %d bits)  life %.1fh  p50 %.2fms  p99 %.2fms  perpetual=%t died=%t\n",
				i, n.PacketsGenerated, n.PacketsDelivered, n.PacketsDropped,
				n.Transmissions, n.BitsDelivered,
				n.ProjectedLife/float64(units.Hour), n.LatencyP50*1e3, n.LatencyP99*1e3,
				n.Perpetual, n.Died)
		}
		return errFound
	})
	switch {
	case err == errFound:
		return nil
	case err != nil:
		return err
	}
	return fmt.Errorf("wearer %d not in store (%d records)", w, r.Records())
}
