// Package obs is the dependency-free observability layer of the
// imputation pipeline: atomic counters, fixed-bound histograms, and
// per-phase wall-clock accounting, behind a Recorder interface that the
// hot paths can call unconditionally.
//
// The package exists because the RENUVER cost model is dominated by two
// phases the paper calls out explicitly — candidate retrieval/ranking by
// mean LHS distance (Algorithm 3 + Eq. 2) and per-imputation
// IS_FAULTLESS verification (Algorithm 4) — and no scaling work can be
// judged without per-phase visibility into them.
//
// Design rules:
//
//   - Zero external dependencies; nothing beyond the standard library.
//   - The disabled path is as close to free as possible: Nop methods are
//     empty and Enabled() lets callers skip time.Now() calls; the global
//     distance-layer counters cost one atomic load when disabled and one
//     atomic add when enabled.
//   - Metrics is safe for concurrent use by any number of imputation
//     runs; all state is atomic, there are no locks on the record path.
package obs

import "time"

// Counter enumerates the monotone event counters of the pipeline.
type Counter int

const (
	// CtrMissingCells counts cells that were null on input.
	CtrMissingCells Counter = iota
	// CtrImputations counts successfully imputed cells.
	CtrImputations
	// CtrDonorsScanned counts donor tuples examined during candidate
	// generation (Algorithm 3), before LHS filtering.
	CtrDonorsScanned
	// CtrCandidatesEvaluated counts (tuple, cluster) candidates that
	// survived LHS filtering and were scored with Eq. 2.
	CtrCandidatesEvaluated
	// CtrDonorsRanked counts candidates that entered the distance sort.
	CtrDonorsRanked
	// CtrCandidatesTried counts tentative imputations attempted.
	CtrCandidatesTried
	// CtrFaultlessChecks counts IS_FAULTLESS invocations (Algorithm 4).
	CtrFaultlessChecks
	// CtrFaultlessFailures counts IS_FAULTLESS rejections.
	CtrFaultlessFailures
	// CtrClustersScanned counts RHS-threshold clusters examined.
	CtrClustersScanned
	// CtrKeyFlips counts key-RFDcs that became non-key mid-run.
	CtrKeyFlips
	// CtrIndexHits counts candidate scans answered by the donor index.
	CtrIndexHits
	// CtrIndexMisses counts candidate scans that needed the full sweep.
	CtrIndexMisses
	// CtrStreamAppends counts tuples absorbed by incremental sessions.
	CtrStreamAppends
	// CtrDiscoveryPatterns counts tuple-pair distance patterns
	// materialized during RFDc discovery.
	CtrDiscoveryPatterns
	// CtrDiscoveryRFDs counts RFDcs emitted by discovery.
	CtrDiscoveryRFDs
	// CtrDiscoveryWorkers accumulates the effective worker count of each
	// discovery run (Config.Workers with 0 resolved to runtime.NumCPU()).
	CtrDiscoveryWorkers
	// CtrDiscoveryPatternChunks counts the chunks the discovery
	// pattern-space materialization was split into across workers.
	CtrDiscoveryPatternChunks
	// CtrLevenshteinCalls counts exact edit-distance computations.
	CtrLevenshteinCalls
	// CtrLevenshteinEarlyExits counts bounded-predicate calls that
	// short-circuited before completing the full dynamic program
	// (length pre-filter, alphabet-mask pre-filter, or an aborted DP).
	CtrLevenshteinEarlyExits
	// CtrLevenshteinMyers counts edit-distance computations answered by
	// the bit-parallel Myers kernel.
	CtrLevenshteinMyers
	// CtrLevenshteinBanded counts edit-distance computations that ran
	// the banded dynamic program (patterns over 64 runes, or the forced
	// reference kernel).
	CtrLevenshteinBanded
	// CtrLevenshteinMaskRejects counts bounded-predicate calls rejected
	// by the alphabet-mask pre-filter alone (also counted as early
	// exits).
	CtrLevenshteinMaskRejects
	// CtrEngineCacheHits counts pairwise distance lookups answered by the
	// evaluation engine's memoized cache.
	CtrEngineCacheHits
	// CtrEngineCacheMisses counts pairwise distance lookups the engine
	// had to compute and store.
	CtrEngineCacheMisses
	// CtrEngineIndexProbes counts candidate-index probes (equality
	// bucket, numeric range, or length bucket) answered by the engine.
	CtrEngineIndexProbes
	// CtrServeAccepted counts requests admitted by the serve-mode gate.
	CtrServeAccepted
	// CtrServeRejected counts requests shed with 429 because the
	// serve-mode admission queue was full.
	CtrServeRejected
	// CtrServeTimeouts counts serve-mode requests aborted by the
	// per-request deadline or a client disconnect.
	CtrServeTimeouts
	// CtrServePanics counts handler panics recovered in serve mode.
	CtrServePanics
	// CtrDiscoveryShards accumulates the effective shard count of each
	// discovery run (Config.Shards with 0 resolved to 1).
	CtrDiscoveryShards
	// CtrDiscoveryShardSlabBytes accumulates the transient pattern-slab
	// bytes each discovery shard materialized before compact encoding.
	CtrDiscoveryShardSlabBytes
	// CtrDiscoveryPatternPeakBytes accumulates each discovery run's peak
	// pattern-storage bytes: the full slab when unsharded, the largest
	// shard slab plus the compact store when sharded.
	CtrDiscoveryPatternPeakBytes
	// CtrDonorShardFanout counts sub-pool scans fanned out by
	// scatter-gather donor search (shards per sharded candidate scan).
	CtrDonorShardFanout
	// CtrDeltaApplied counts ApplyDelta calls that published a new epoch.
	CtrDeltaApplied
	// CtrDeltaRowsInserted counts tuples inserted by applied deltas.
	CtrDeltaRowsInserted
	// CtrDeltaRowsUpdated counts cell updates applied by deltas.
	CtrDeltaRowsUpdated
	// CtrDeltaRowsDeleted counts rows deleted by applied deltas.
	CtrDeltaRowsDeleted
	// CtrDeltaSigmaDropped counts dependencies the post-delta
	// revalidation dropped from Σ.
	CtrDeltaSigmaDropped
	// CtrDeltaSigmaTightened counts LHS tightenings the post-delta
	// revalidation applied to Σ.
	CtrDeltaSigmaTightened
	// CtrDeltaCacheShardsInvalidated counts distance-cache shards a delta
	// invalidated (only interner compactions remap ids; id-stable deltas
	// invalidate nothing).
	CtrDeltaCacheShardsInvalidated
	// CtrInternersCompacted counts per-attribute interning tables rebuilt
	// with dense ids because deletes left them mostly dead.
	CtrInternersCompacted
	// CtrEpochsRetired counts superseded epochs whose last pinned reader
	// finished.
	CtrEpochsRetired
	// CtrVerifyPlans counts missing cells whose IS_FAULTLESS witness rows
	// were planned once for all their candidates.
	CtrVerifyPlans
	// CtrVerifyArmedRows counts the target rows those plans armed as
	// potential IS_FAULTLESS witnesses.
	CtrVerifyArmedRows

	numCounters int = iota
)

var counterNames = [...]string{
	CtrMissingCells:           "missing_cells",
	CtrImputations:            "imputations",
	CtrDonorsScanned:          "donors_scanned",
	CtrCandidatesEvaluated:    "candidates_evaluated",
	CtrDonorsRanked:           "donors_ranked",
	CtrCandidatesTried:        "candidates_tried",
	CtrFaultlessChecks:        "faultless_checks",
	CtrFaultlessFailures:      "faultless_failures",
	CtrClustersScanned:        "clusters_scanned",
	CtrKeyFlips:               "key_flips",
	CtrIndexHits:              "index_hits",
	CtrIndexMisses:            "index_misses",
	CtrStreamAppends:          "stream_appends",
	CtrDiscoveryPatterns:      "discovery_patterns",
	CtrDiscoveryRFDs:          "discovery_rfds",
	CtrDiscoveryWorkers:       "discovery_workers",
	CtrDiscoveryPatternChunks: "discovery_pattern_chunks",
	CtrLevenshteinCalls:       "levenshtein_calls",
	CtrLevenshteinEarlyExits:  "levenshtein_early_exits",
	CtrLevenshteinMyers:       "levenshtein_myers",
	CtrLevenshteinBanded:      "levenshtein_banded",
	CtrLevenshteinMaskRejects: "levenshtein_mask_rejects",
	CtrEngineCacheHits:        "engine_cache_hits",
	CtrEngineCacheMisses:      "engine_cache_misses",
	CtrEngineIndexProbes:      "engine_index_probes",
	CtrServeAccepted:          "serve_accepted",
	CtrServeRejected:          "serve_rejected",
	CtrServeTimeouts:          "serve_timeouts",
	CtrServePanics:            "serve_panics",

	CtrDiscoveryShards:           "discovery_shards",
	CtrDiscoveryShardSlabBytes:   "discovery_shard_slab_bytes",
	CtrDiscoveryPatternPeakBytes: "discovery_pattern_peak_bytes",
	CtrDonorShardFanout:          "donor_shard_fanout",

	CtrDeltaApplied:                "delta_applied",
	CtrDeltaRowsInserted:           "delta_rows_inserted",
	CtrDeltaRowsUpdated:            "delta_rows_updated",
	CtrDeltaRowsDeleted:            "delta_rows_deleted",
	CtrDeltaSigmaDropped:           "delta_sigma_dropped",
	CtrDeltaSigmaTightened:         "delta_sigma_tightened",
	CtrDeltaCacheShardsInvalidated: "delta_cache_shards_invalidated",
	CtrInternersCompacted:          "interners_compacted",
	CtrEpochsRetired:               "epochs_retired",

	CtrVerifyPlans:     "verify_plans",
	CtrVerifyArmedRows: "verify_armed_rows",
}

// String returns the snake_case name used in snapshots.
func (c Counter) String() string {
	if c < 0 || int(c) >= numCounters {
		return "unknown_counter"
	}
	return counterNames[c]
}

// Phase enumerates the pipeline phases whose wall clock is accounted.
type Phase int

const (
	// PhasePreprocess covers key-RFDc detection and donor-index build.
	PhasePreprocess Phase = iota
	// PhaseCandidateSearch covers Algorithm 3 (donor scans + Eq. 2).
	PhaseCandidateSearch
	// PhaseRanking covers the T_candidate distance sort.
	PhaseRanking
	// PhaseVerify covers IS_FAULTLESS (Algorithm 4).
	PhaseVerify
	// PhaseKeyReeval covers the per-imputation key re-evaluation
	// (Algorithm 1 line 14).
	PhaseKeyReeval
	// PhaseDiscovery covers RFDc discovery end to end.
	PhaseDiscovery
	// PhaseDiscoveryMaterialize covers the O(n²) distance-pattern
	// materialization inside discovery.
	PhaseDiscoveryMaterialize
	// PhaseDiscoverySearch covers the greedy lattice search and
	// dominance pruning inside discovery.
	PhaseDiscoverySearch
	// PhaseDonorMerge covers merging the per-shard candidate lists of
	// scatter-gather donor search.
	PhaseDonorMerge
	// PhaseDeltaBuild covers cloning the logical relation, applying a
	// delta's mutations, and evolving the compiled base columns.
	PhaseDeltaBuild
	// PhaseDeltaRevalidate covers repairing Σ against the pairs a delta's
	// changed rows introduce.
	PhaseDeltaRevalidate
	// PhaseTotal covers one whole Impute run.
	PhaseTotal

	numPhases int = iota
)

var phaseNames = [...]string{
	PhasePreprocess:           "preprocess",
	PhaseCandidateSearch:      "candidate_search",
	PhaseRanking:              "ranking",
	PhaseVerify:               "verify",
	PhaseKeyReeval:            "key_reeval",
	PhaseDiscovery:            "discovery",
	PhaseDiscoveryMaterialize: "discovery_materialize",
	PhaseDiscoverySearch:      "discovery_search",
	PhaseDonorMerge:           "donor_merge",
	PhaseDeltaBuild:           "delta_build",
	PhaseDeltaRevalidate:      "delta_revalidate",
	PhaseTotal:                "total",
}

// String returns the snake_case name used in snapshots.
func (p Phase) String() string {
	if p < 0 || int(p) >= numPhases {
		return "unknown_phase"
	}
	return phaseNames[p]
}

// Hist enumerates the distribution metrics.
type Hist int

const (
	// HistCandidatesPerCell is |T_candidate| per (missing value, cluster).
	HistCandidatesPerCell Hist = iota
	// HistAttemptsPerImputation is how many ranked candidates were tried
	// before one passed verification.
	HistAttemptsPerImputation
	// HistImputeMicros is the per-run Impute latency in microseconds.
	HistImputeMicros
	// HistServeQueueDepth is how many requests were already waiting for a
	// pool slot when each serve-mode request arrived.
	HistServeQueueDepth
	// HistServeQueueWaitMicros is how long each admitted serve-mode
	// request waited in the admission queue before getting a pool slot.
	HistServeQueueWaitMicros

	numHists int = iota
)

var histNames = [...]string{
	HistCandidatesPerCell:     "candidates_per_cell",
	HistAttemptsPerImputation: "attempts_per_imputation",
	HistImputeMicros:          "impute_micros",
	HistServeQueueDepth:       "serve_queue_depth",
	HistServeQueueWaitMicros:  "serve_queue_wait_micros",
}

// String returns the snake_case name used in snapshots.
func (h Hist) String() string {
	if h < 0 || int(h) >= numHists {
		return "unknown_hist"
	}
	return histNames[h]
}

// histBounds are the fixed upper bucket bounds per histogram; every
// histogram gets an implicit +Inf overflow bucket on top.
var histBounds = [numHists][]float64{
	HistCandidatesPerCell:     {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
	HistAttemptsPerImputation: {1, 2, 3, 5, 10, 20, 50},
	HistImputeMicros:          {100, 1000, 10_000, 100_000, 1e6, 10e6, 100e6},
	HistServeQueueDepth:       {0, 1, 2, 4, 8, 16, 32, 64, 128},
	HistServeQueueWaitMicros:  {10, 100, 1000, 10_000, 100_000, 1e6, 10e6},
}

// Bounds returns the histogram's upper bucket bounds (without the
// implicit +Inf bucket). Callers must not mutate the result.
func (h Hist) Bounds() []float64 { return histBounds[h] }

// counterHelp is the HELP text of each counter in the Prometheus
// exposition — one sentence, mirroring the enum doc comments.
var counterHelp = [...]string{
	CtrMissingCells:           "Cells that were null on input.",
	CtrImputations:            "Successfully imputed cells.",
	CtrDonorsScanned:          "Donor tuples examined during candidate generation, before LHS filtering.",
	CtrCandidatesEvaluated:    "Candidates that survived LHS filtering and were scored with Eq. 2.",
	CtrDonorsRanked:           "Candidates that entered the distance sort.",
	CtrCandidatesTried:        "Tentative imputations attempted.",
	CtrFaultlessChecks:        "IS_FAULTLESS invocations (Algorithm 4).",
	CtrFaultlessFailures:      "IS_FAULTLESS rejections.",
	CtrClustersScanned:        "RHS-threshold clusters examined.",
	CtrKeyFlips:               "Key-RFDcs that became non-key mid-run.",
	CtrIndexHits:              "Candidate scans answered by the donor index.",
	CtrIndexMisses:            "Candidate scans that needed the full sweep.",
	CtrStreamAppends:          "Tuples absorbed by incremental sessions.",
	CtrDiscoveryPatterns:      "Tuple-pair distance patterns materialized during RFDc discovery.",
	CtrDiscoveryRFDs:          "RFDcs emitted by discovery.",
	CtrDiscoveryWorkers:       "Accumulated effective worker count across discovery runs.",
	CtrDiscoveryPatternChunks: "Chunks the discovery pattern-space materialization was split into.",
	CtrLevenshteinCalls:       "Exact edit-distance computations.",
	CtrLevenshteinEarlyExits:  "Bounded-predicate calls that short-circuited before the full dynamic program.",
	CtrLevenshteinMyers:       "Edit-distance computations answered by the bit-parallel Myers kernel.",
	CtrLevenshteinBanded:      "Edit-distance computations that ran the banded dynamic program.",
	CtrLevenshteinMaskRejects: "Bounded-predicate calls rejected by the alphabet-mask pre-filter alone.",
	CtrEngineCacheHits:        "Pairwise distance lookups answered by the engine's memoized cache.",
	CtrEngineCacheMisses:      "Pairwise distance lookups the engine had to compute and store.",
	CtrEngineIndexProbes:      "Candidate-index probes answered by the engine.",
	CtrServeAccepted:          "Requests admitted by the serve-mode gate.",
	CtrServeRejected:          "Requests shed with 429 because the admission queue was full.",
	CtrServeTimeouts:          "Serve-mode requests aborted by the per-request deadline or a client disconnect.",
	CtrServePanics:            "Handler panics recovered in serve mode.",

	CtrDiscoveryShards:           "Accumulated effective shard count across discovery runs.",
	CtrDiscoveryShardSlabBytes:   "Transient pattern-slab bytes materialized per discovery shard.",
	CtrDiscoveryPatternPeakBytes: "Accumulated per-run peak pattern-storage bytes during discovery.",
	CtrDonorShardFanout:          "Sub-pool scans fanned out by scatter-gather donor search.",

	CtrDeltaApplied:                "ApplyDelta calls that published a new epoch.",
	CtrDeltaRowsInserted:           "Tuples inserted by applied deltas.",
	CtrDeltaRowsUpdated:            "Cell updates applied by deltas.",
	CtrDeltaRowsDeleted:            "Rows deleted by applied deltas.",
	CtrDeltaSigmaDropped:           "Dependencies dropped from Sigma by post-delta revalidation.",
	CtrDeltaSigmaTightened:         "LHS tightenings applied to Sigma by post-delta revalidation.",
	CtrDeltaCacheShardsInvalidated: "Distance-cache shards invalidated by deltas.",
	CtrInternersCompacted:          "Per-attribute interning tables rebuilt with dense ids after deletes.",
	CtrEpochsRetired:               "Superseded epochs whose last pinned reader finished.",

	CtrVerifyPlans:     "Missing cells whose IS_FAULTLESS witness rows were planned once for all candidates.",
	CtrVerifyArmedRows: "Target rows armed as potential IS_FAULTLESS witnesses by verify plans.",
}

// Help returns the Prometheus HELP text for the counter.
func (c Counter) Help() string {
	if c < 0 || int(c) >= numCounters {
		return "Unknown counter."
	}
	return counterHelp[c]
}

// histHelp is the HELP text of each histogram.
var histHelp = [...]string{
	HistCandidatesPerCell:     "Candidate count per (missing value, cluster).",
	HistAttemptsPerImputation: "Ranked candidates tried before one passed verification.",
	HistImputeMicros:          "Per-run Impute latency in microseconds.",
	HistServeQueueDepth:       "Requests already waiting for a pool slot at arrival.",
	HistServeQueueWaitMicros:  "Admission-queue wait of admitted requests in microseconds.",
}

// Help returns the Prometheus HELP text for the histogram.
func (h Hist) Help() string {
	if h < 0 || int(h) >= numHists {
		return "Unknown histogram."
	}
	return histHelp[h]
}

// Recorder receives pipeline events. Implementations must be safe for
// concurrent use: the parallel scan workers and concurrent Impute runs
// all record into the same instance.
type Recorder interface {
	// Add increments a counter by delta.
	Add(c Counter, delta int64)
	// Observe records one sample into a histogram.
	Observe(h Hist, v float64)
	// Time accounts wall clock to a phase.
	Time(p Phase, d time.Duration)
	// Enabled reports whether recording has any effect; callers use it
	// to skip sample preparation (e.g. time.Now) on the disabled path.
	Enabled() bool
}

// Nop is the disabled Recorder: every method is an empty body the
// compiler can inline away.
type Nop struct{}

// Add implements Recorder.
func (Nop) Add(Counter, int64) {}

// Observe implements Recorder.
func (Nop) Observe(Hist, float64) {}

// Time implements Recorder.
func (Nop) Time(Phase, time.Duration) {}

// Enabled implements Recorder.
func (Nop) Enabled() bool { return false }

// Since is a convenience for phase accounting: it records the elapsed
// time from start when the recorder is enabled. Pair it with a start
// captured via Now(r).
func Since(r Recorder, p Phase, start time.Time) {
	if r != nil && r.Enabled() {
		r.Time(p, time.Since(start))
	}
}

// Now returns the current time when the recorder is enabled and the
// zero time otherwise, so the disabled path skips the clock read.
func Now(r Recorder) time.Time {
	if r != nil && r.Enabled() {
		return time.Now()
	}
	return time.Time{}
}
