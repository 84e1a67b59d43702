// Package benchgate implements the CI benchmark-regression gate: it
// compares freshly measured benchmark records against committed floor
// files (BENCH_matcher.json, BENCH_campaign.json) and reports every
// violation of the tolerance band.
//
// The gate is deliberately biased toward machine-independent numbers.
// Absolute ns/op varies wildly across CI runners, so it gets a generous
// slack and exists only to catch order-of-magnitude blowups; the load-
// bearing checks are ratios measured inside one process on one machine
// (the snapshot campaign speedup), allocation counts (deterministic for
// a deterministic workload), and the workload shape itself (records per
// op, points per op) — a silent workload change would otherwise let a
// regression hide behind a smaller input.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
)

// MatcherRecord is the BENCH_matcher.json schema: the matcher-ingest
// microbenchmark (one MatchSession classifying every record of a
// profiling run).
type MatcherRecord struct {
	Benchmark    string  `json:"benchmark"`
	System       string  `json:"system"`
	RecordsPerOp int     `json:"records_per_op"`
	Matched      int     `json:"matched_per_op"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	NsPerRecord  float64 `json:"ns_per_record"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// MatcherKind is the benchmark discriminator of MatcherRecord files.
const MatcherKind = "matcher-ingest"

// CampaignRecord is the BENCH_campaign.json schema: the same injection
// campaign measured twice in one process — every run replayed from t=0
// (legacy) and every run forked from the snapshot plan — so the speedup
// is a single-machine ratio the gate can hold across heterogeneous CI
// runners.
type CampaignRecord struct {
	Benchmark   string `json:"benchmark"`
	System      string `json:"system"`
	PointsPerOp int    `json:"points_per_op"`
	// SnapshotPoints is how many of those points the reference pass saw
	// firing (the rest are synthesized NotHit reports).
	SnapshotPoints  int     `json:"snapshot_points"`
	Iterations      int     `json:"iterations"`
	LegacyNsPerOp   float64 `json:"legacy_ns_per_op"`
	SnapshotNsPerOp float64 `json:"snapshot_ns_per_op"`
	// Speedup is LegacyNsPerOp / SnapshotNsPerOp, each side's fastest of
	// many short interleaved rounds. Contention only ever adds time, so
	// the per-side round minimum is the best estimate of that side's
	// true cost on a shared runner; the emitter refuses to publish a
	// record when the per-round pair ratios disagree wildly with this
	// floor ratio (load so asymmetric the floors can't be trusted).
	Speedup float64 `json:"speedup"`
	// MinSpeedup is the hard acceptance floor baked into the committed
	// record; the gate fails any measurement below it regardless of what
	// the committed Speedup drifted to.
	MinSpeedup  float64 `json:"min_speedup"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// CloneRungs is how many engine clones the reference pass retained
	// as fork bases, one per distinct pre-hit event boundary; zero means
	// every point fell back to a full replay, which is a regression.
	CloneRungs int `json:"clone_rungs"`
	// CloneBytesPerSnapshot is the whole snapshot plan's retained heap
	// (live bytes after GC: point captures, frozen stash views and clone
	// templates) divided by CloneRungs — the memory price paid for
	// skipping prefix replay, per rung.
	CloneBytesPerSnapshot int64 `json:"clone_bytes_per_snapshot"`
	// Sweep records the speedup at increasing workload scales, measured
	// with the same interleaved estimator as the headline number. Clone
	// forks amortize better the longer the fault-free prefix, so the
	// sweep must not invert: a last entry slower than the first means
	// forking stopped scaling with timeline length.
	Sweep []SweepPoint `json:"sweep,omitempty"`
	// Partition is the informational partition-campaign row: the same
	// points re-run as network cuts instead of crashes, with the cost
	// and oracle yield recorded next to the crash campaign they ride
	// on. CheckCampaign never gates on it.
	Partition *PartitionBench `json:"partition,omitempty"`
}

// SweepPoint is one entry of a campaign record's points-scale sweep.
type SweepPoint struct {
	Scale   int     `json:"scale"`
	Points  int     `json:"points"`
	Speedup float64 `json:"speedup"`
}

// PartitionBench is the informational partition row of a campaign
// record: un-gated, descriptive only.
type PartitionBench struct {
	NsPerOp float64 `json:"ns_per_op"`
	// Cuts counts runs that opened a network cut, Healed the subset
	// whose cut closed before the run ended, and Bugs the partition-
	// oracle bug reports across one campaign.
	Cuts   int `json:"cuts"`
	Healed int `json:"healed"`
	Bugs   int `json:"bugs"`
}

// CampaignKind is the benchmark discriminator of CampaignRecord files.
const CampaignKind = "campaign-snapshot"

// Tolerance is the gate's slack band, as fractional headroom over the
// committed floors.
type Tolerance struct {
	// NsSlack pads absolute time comparisons (ns/record); generous
	// because CI runners differ in clock speed and load.
	NsSlack float64
	// AllocSlack pads allocation comparisons; tight because allocations
	// of a deterministic workload barely vary.
	AllocSlack float64
	// SpeedupSlack is how far the measured snapshot speedup may fall
	// below the committed one before the gate fails (the MinSpeedup hard
	// floor applies regardless).
	SpeedupSlack float64
}

// DefaultTolerance is the band CI runs with.
func DefaultTolerance() Tolerance {
	return Tolerance{NsSlack: 1.00, AllocSlack: 0.15, SpeedupSlack: 0.35}
}

// CheckMatcher compares a fresh matcher measurement against the
// committed floor and returns every violation (empty: the gate passes).
func CheckMatcher(fresh, floor MatcherRecord, tol Tolerance) []string {
	var v []string
	if fresh.RecordsPerOp != floor.RecordsPerOp {
		v = append(v, fmt.Sprintf("workload drift: %d records/op, committed floor has %d — regenerate the floor file",
			fresh.RecordsPerOp, floor.RecordsPerOp))
	}
	if fresh.Matched != floor.Matched {
		v = append(v, fmt.Sprintf("workload drift: %d matched/op, committed floor has %d — regenerate the floor file",
			fresh.Matched, floor.Matched))
	}
	if limit := floor.NsPerRecord * (1 + tol.NsSlack); fresh.NsPerRecord > limit {
		v = append(v, fmt.Sprintf("ns/record regression: %.1f > %.1f (floor %.1f + %.0f%% slack)",
			fresh.NsPerRecord, limit, floor.NsPerRecord, tol.NsSlack*100))
	}
	if limit := allocLimit(floor.AllocsPerOp, tol); float64(fresh.AllocsPerOp) > limit {
		v = append(v, fmt.Sprintf("allocs/op regression: %d > %.0f (floor %d + %.0f%% slack)",
			fresh.AllocsPerOp, limit, floor.AllocsPerOp, tol.AllocSlack*100))
	}
	return v
}

// CheckCampaign compares a fresh campaign measurement against the
// committed floor and returns every violation (empty: the gate passes).
func CheckCampaign(fresh, floor CampaignRecord, tol Tolerance) []string {
	var v []string
	if fresh.PointsPerOp != floor.PointsPerOp {
		v = append(v, fmt.Sprintf("workload drift: %d points/op, committed floor has %d — regenerate the floor file",
			fresh.PointsPerOp, floor.PointsPerOp))
	}
	if floor.MinSpeedup > 0 && fresh.Speedup < floor.MinSpeedup {
		v = append(v, fmt.Sprintf("snapshot speedup %.2fx below the %.1fx acceptance floor",
			fresh.Speedup, floor.MinSpeedup))
	}
	if limit := floor.Speedup * (1 - tol.SpeedupSlack); fresh.Speedup < limit {
		v = append(v, fmt.Sprintf("snapshot speedup regression: %.2fx < %.2fx (committed %.2fx - %.0f%% slack)",
			fresh.Speedup, limit, floor.Speedup, tol.SpeedupSlack*100))
	}
	if limit := allocLimit(floor.AllocsPerOp, tol); float64(fresh.AllocsPerOp) > limit {
		v = append(v, fmt.Sprintf("allocs/op regression: %d > %.0f (floor %d + %.0f%% slack)",
			fresh.AllocsPerOp, limit, floor.AllocsPerOp, tol.AllocSlack*100))
	}
	if fresh.CloneRungs != floor.CloneRungs {
		v = append(v, fmt.Sprintf("workload drift: %d clone rungs, committed floor has %d — regenerate the floor file",
			fresh.CloneRungs, floor.CloneRungs))
	}
	// Clone memory gets the alloc slack plus 4 KiB of absolute headroom:
	// retained-heap measurements round to allocator size classes, so tiny
	// floors would otherwise gate on bucketing noise.
	if limit := float64(floor.CloneBytesPerSnapshot)*(1+tol.AllocSlack) + 4096; floor.CloneBytesPerSnapshot > 0 && float64(fresh.CloneBytesPerSnapshot) > limit {
		v = append(v, fmt.Sprintf("clone memory regression: %d bytes/snapshot > %.0f (floor %d + %.0f%% slack + 4KiB)",
			fresh.CloneBytesPerSnapshot, limit, floor.CloneBytesPerSnapshot, tol.AllocSlack*100))
	}
	if len(fresh.Sweep) > 1 {
		first, last := fresh.Sweep[0], fresh.Sweep[len(fresh.Sweep)-1]
		if last.Speedup < first.Speedup {
			v = append(v, fmt.Sprintf("sweep inversion: %.2fx at scale %d < %.2fx at scale %d — clone speedup no longer grows with timeline length",
				last.Speedup, last.Scale, first.Speedup, first.Scale))
		}
	}
	return v
}

// allocLimit pads an allocation floor: fractional slack plus one
// absolute allocation of headroom so tiny floors don't gate on noise.
func allocLimit(floor int64, tol Tolerance) float64 {
	return float64(floor)*(1+tol.AllocSlack) + 1
}

// Kind returns the "benchmark" discriminator of a record file's bytes.
func Kind(data []byte) (string, error) {
	var env struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return "", err
	}
	if env.Benchmark == "" {
		return "", fmt.Errorf("no \"benchmark\" discriminator in record")
	}
	return env.Benchmark, nil
}

// ReadMatcherFile loads a committed MatcherRecord.
func ReadMatcherFile(path string) (MatcherRecord, error) {
	var rec MatcherRecord
	err := readRecord(path, &rec)
	return rec, err
}

// ReadCampaignFile loads a committed CampaignRecord.
func ReadCampaignFile(path string) (CampaignRecord, error) {
	var rec CampaignRecord
	err := readRecord(path, &rec)
	return rec, err
}

func readRecord(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// WriteFile marshals a record to path as indented JSON, the format the
// committed floor files are kept in.
func WriteFile(path string, rec any) error {
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
