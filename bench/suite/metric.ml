type better = Higher | Lower

type def = { name : string; unit_ : string; better : better }

let d name unit_ better = { name; unit_; better }

let end_to_end =
  [ d "setup_s" "s" Lower;
    d "ops_per_s" "ops/s" Higher;
    d "update_ops_per_s" "ops/s" Higher;
    d "read_p50_ns" "ns" Lower;
    d "update_p50_ns" "ns" Lower ]

let per_layer =
  [ d "host.ref_loop_ms" "ms" Lower;
    d "harness.floor_ns" "ns" Lower;
    d "harness.floor_ns_2d" "ns" Lower;
    d "smem.read_ns" "ns" Lower;
    d "smem.write_ns" "ns" Lower;
    d "smem.cas_ns" "ns" Lower;
    d "smem.cas_ns_2d_shared" "ns" Lower;
    d "steps.alg_a.read" "count" Lower;
    d "steps.alg_a.update" "count" Lower;
    d "steps.alg_a.update.cas" "count" Lower;
    d "steps.farray.read" "count" Lower;
    d "steps.farray.update" "count" Lower;
    d "steps.farray.update.cas" "count" Lower;
    d "alg_a.read_ns" "ns" Lower;
    d "alg_a.update_ns" "ns" Lower;
    d "farray.read_ns" "ns" Lower;
    d "farray.update_ns" "ns" Lower;
    d "ladder.alg_a.read.residual_pct" "%" Lower;
    d "ladder.alg_a.update.residual_pct" "%" Lower;
    d "ladder.farray.read.residual_pct" "%" Lower;
    d "ladder.farray.update.residual_pct" "%" Lower;
    d "obs.disabled_overhead_ns" "ns" Lower;
    d "alg_a.cas_fail_pct" "%" Lower;
    d "alg_a.refresh_per_update" "count/op" Lower;
    d "farray.cas_fail_pct" "%" Lower;
    d "farray.refresh_per_update" "count/op" Lower;
    d "helps_per_update" "count/op" Lower;
    d "combine.eliminations_per_update" "count/op" Higher;
    d "combine.mean_batch" "ops" Higher;
    d "combine.batch_max" "ops" Higher;
    d "combine.locks_per_update" "count/op" Lower;
    d "combine.useful_pct" "%" Higher;
    d "adaptive.flips" "count" Lower;
    d "adaptive.combining_pct" "%" Higher;
    d "adaptive.epochs" "count" Higher;
    d "stream.stale_pct" "%" Lower;
    d "trials.trend_pct" "%" Lower;
    d "trials.iqr_pct" "%" Lower;
    d "trials.kept_pct" "%" Higher;
    d "gc.minor_words_per_op" "words/op" Lower;
    d "read_p99_ns" "ns" Lower;
    d "read_p999_ns" "ns" Lower;
    d "update_p99_ns" "ns" Lower;
    d "update_p999_ns" "ns" Lower;
    d "latency.read_samples" "count" Higher;
    d "latency.update_samples" "count" Higher;
    d "self.harness_pct" "%" Lower;
    d "self.alg_a_pct" "%" Lower;
    d "self.farray_pct" "%" Lower;
    d "self.adaptive_pct" "%" Lower;
    d "self.dpor_pct" "%" Lower;
    d "linearize.check_pct" "%" Lower;
    d "dpor.classes.alg_a" "count" Lower;
    d "dpor.classes.farray" "count" Lower;
    d "dpor.sleep_blocked" "count" Lower;
    d "dpor.events" "count" Lower;
    d "dpor.events_per_s" "1/s" Higher;
    d "trace.overhead_pct" "%" Lower ]

let better_string = function Higher -> "higher" | Lower -> "lower"
