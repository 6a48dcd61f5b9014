# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-all check lint cost tsan chaos adaptive dial experiments examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# includes the `Slow`-marked exhaustive suites
test-all:
	dune runtest --force

# tests + a quick pass over every experiment (sanity gate)
check: test
	dune exec bin/repro.exe -- all --quick

# concurrency-discipline linter (R1-R4 + cost rule C1 over the
# dune-produced .cmt files; OCaml 5.1 and 5.2 -- see lib/lint/dune)
lint:
	dune build @default
	dune exec bin/lint.exe

# step-complexity certifier only: check every budgeted operation and
# regenerate the committed COSTS.md table
cost:
	dune build @default
	dune exec bin/lint.exe -- --cost --costs-md COSTS.md

# run the raw-Atomic test surface under ThreadSanitizer; requires a
# tsan compiler switch, e.g.:
#   opam switch create 5.2.1+tsan ocaml-variants.5.2.1+options ocaml-option-tsan
tsan:
	dune build @default
	dune exec test/test_unboxed.exe
	dune exec test/test_obs.exe
	dune exec test/test_native.exe
	dune exec test/test_combining.exe
	dune exec test/test_adaptive.exe
	dune exec test/test_dial.exe
	dune exec bin/repro.exe -- e7 --quick

# dispatch-layer smoke: the policy/differential/parallel suite of
# Harness.Adaptive.Alg_a (pinned combining and adaptive) plus a quick
# E7 pass, whose algorithm-a rows cover boxed, unboxed, combining and
# adaptive
adaptive:
	dune exec test/test_adaptive.exe
	dune exec bin/repro.exe -- e7 --quick

# fault sweeps (exhaustive, simulator) + native chaos soak (~1 min)
chaos:
	dune exec bin/stress.exe -- --impl algorithm-a --procs 3 --readers 2 --fault-sweep
	dune exec bin/stress.exe -- --impl cas-loop --procs 3 --readers 1 --fault-sweep
	dune exec bin/stress.exe -- --object counter --impl naive --procs 3 --readers 1 --fault-sweep
	dune exec bin/stress.exe -- --object snapshot --impl double-collect --procs 3 --readers 1 --fault-sweep
	dune exec bin/stress.exe -- --chaos 42

# tradeoff-dial family: differential/parallel tests, per-dial cost
# certification, and the frontier sweep (steps + throughput)
dial:
	dune exec test/test_dial.exe
	dune exec test/test_cost.exe
	dune exec bin/repro.exe -- frontier --quick

# regenerate every experiment table (~4 minutes; EXPERIMENTS.md material)
experiments:
	dune exec bin/repro.exe -- all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/adversary_demo.exe -- 64
	dune exec examples/leader_election.exe
	dune exec examples/metrics_aggregation.exe
	dune exec examples/progress_tracker.exe

doc:  # requires odoc (not in this sealed container)
	dune build @doc

clean:
	dune clean
