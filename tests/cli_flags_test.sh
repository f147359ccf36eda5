#!/bin/sh
# The vdram_cli flag contract, row by row, against the real binary.
#
# Each row is: expected exit code, expected stderr substring (empty =
# not checked), then the command line. Every flag of every command gets
# a valid value, an out-of-range value and a non-numeric value where it
# takes a number, and is offered to a command that does not own it; each
# command also meets an unknown flag. `serve` and `fleet` rows give no
# --socket/--port, so they stop at the "needs --socket" check and no
# daemon ever starts; `serve-send` rows read an empty stdin, so they stop
# before connecting.
#
# `fixed` rows pin usage errors that older binaries let through (seconds
# and sweep factors parsed with atof, switches looked for at one argv
# slot, stray positional arguments ignored, a count reported as
# "got 0").
#
# Usage: cli_flags_test.sh <path-to-vdram_cli>
set -e

CLI="$1"
if [ -z "$CLI" ] || [ ! -x "$CLI" ]; then
    echo "usage: $0 <path-to-vdram_cli>" >&2
    exit 1
fi
SRC=$(cd "$(dirname "$0")/.." && pwd)

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

P=preset:ddr3_1g_55
CMDTRACE="$SRC/examples/data/row_cycle.cmdtrace"
"$CLI" gen-trace $P random 40 > "$DIR/access.trace"

ROWS=0
FAILED=0

# check LABEL EXIT SUBSTRING ARGS...
check() {
    label="$1"
    want_exit="$2"
    want_err="$3"
    shift 3
    ROWS=$((ROWS + 1))
    set +e
    "$CLI" "$@" > "$DIR/out.txt" 2> "$DIR/err.txt" < /dev/null
    got=$?
    set -e
    if [ "$got" != "$want_exit" ]; then
        echo "FAIL$label: vdram_cli $*: exit $got, want $want_exit" >&2
        sed 's/^/    /' "$DIR/err.txt" | head -3 >&2
        FAILED=$((FAILED + 1))
    elif [ -n "$want_err" ] && ! grep -qF -- "$want_err" "$DIR/err.txt"
    then
        echo "FAIL$label: vdram_cli $*: stderr lacks '$want_err'" >&2
        sed 's/^/    /' "$DIR/err.txt" | head -3 >&2
        FAILED=$((FAILED + 1))
    fi
}

row() { check "" "$@"; }
fixed() { check " (bug-fix row)" "$@"; }

# --- global flags, lint and help -------------------------------------
row 0 "" --help
row 0 "" help
row 0 "" list
row 0 "" --lint "$SRC/examples/data/ddr3_1gb.dram"
row 0 "" describe "$SRC/examples/data/ddr3_1gb.dram" --lint
row 3 "E-" --lint "$SRC/tests/data/defective.dram"
row 3 "" --lint --diag-format=json "$SRC/tests/data/defective.dram"
row 0 "" --diag-format=text idd $P
row 0 "" --diag-format=json idd $P
row 2 "xml" --diag-format=xml --lint "$SRC/examples/data/ddr3_1gb.dram"
row 2 "xml" --diag-format=xml idd $P
row 2 "--lint=1" idd $P --lint=1
row 0 "" fit --list-parameters
row 0 "" fit $P --list-parameters
row 0 "" idd $P --metrics-out "$DIR/metrics.json"
row 0 "" idd $P --metrics-out="$DIR/metrics.json"
row 2 "--metrics-out" idd $P --metrics-out
row 2 "--metrics-out" idd $P --metrics-out=
row 0 "" idd $P --trace-out "$DIR/trace.json"
row 0 "" idd $P --trace-out="$DIR/trace.json"
row 2 "--trace-out" idd $P --trace-out
row 0 "VDRAM-READY" montecarlo $P --samples=4 --ready-marker
row 2 "--ready-marker=1" montecarlo $P --samples=4 --ready-marker=1
row 2 "" bogus-command
row 2 "" describe
row 2 "unknown flag '--bogus'" idd $P --bogus

# --- campaign (batch runner) flags: every command accepts them -------
MC="montecarlo $P --samples=4"
row 0 "" $MC --jobs=2
row 0 "" $MC --jobs=0
row 2 "--jobs" $MC --jobs=1025
row 2 "--jobs" $MC --jobs=-1
row 2 "--jobs" $MC --jobs=abc
row 0 "" $MC --task-timeout=5
row 2 "--task-timeout" $MC --task-timeout=0
row 2 "--task-timeout" $MC --task-timeout=-1
row 2 "--task-timeout" $MC --task-timeout=abc
row 0 "" $MC --checkpoint="$DIR/mc.jsonl"
row 0 "" $MC --checkpoint="$DIR/mc.jsonl" --resume
row 2 "--checkpoint" $MC --checkpoint=
row 2 "--resume=1" $MC --resume=1

# --- sensitivity / trends / workload switches ------------------------
row 0 "" sensitivity $P
row 0 "" sensitivity $P --detailed
row 2 "--detailed=1" sensitivity $P --detailed=1
row 2 "unknown flag '--csv'" sensitivity $P --csv
row 2 "unknown flag '--bogus'" sensitivity $P --bogus
row 2 "unknown flag '--detailed'" trends --detailed
fixed 2 "stray" sensitivity $P stray --detailed
row 0 "" trends
row 0 "" trends --csv
row 2 "--csv=1" trends --csv=1
row 2 "unknown flag '--json'" trends --json
row 2 "unknown flag '--bogus'" trends --bogus
row 2 "unknown flag '--csv'" idd $P --csv
fixed 2 "bogus" trends bogus --csv
row 0 "" workload $P "$DIR/access.trace"
row 0 "" workload $P "$DIR/access.trace" --closed
row 2 "--closed=1" workload $P "$DIR/access.trace" --closed=1
row 2 "unknown flag '--closed'" sched $P --closed
row 2 "unknown flag '--bogus'" workload $P "$DIR/access.trace" --bogus
fixed 2 "stray" workload $P "$DIR/access.trace" stray --closed

# --- gen-trace positionals -------------------------------------------
row 0 "" gen-trace $P random 10
row 0 "" gen-trace $P zipf
row 2 "got 0" gen-trace $P random 0
row 2 "100000000" gen-trace $P random 100000001
row 2 "bogus" gen-trace $P bogus 10
row 2 "unknown flag '--bogus'" gen-trace $P random 10 --bogus
fixed 2 "got abc" gen-trace $P random abc

# --- sweep factors ---------------------------------------------------
row 0 "" sweep $P "Bitline pitch" 0.9 1.1
fixed 2 "got '1.1x'" sweep $P "Bitline pitch" 1.1x
fixed 2 "got 'inf'" sweep $P "Bitline pitch" 1.1 inf
fixed 2 "got 'nan'" sweep $P "Bitline pitch" nan
fixed 2 "got '0'" sweep $P "Bitline pitch" 0

# --- montecarlo ------------------------------------------------------
row 0 "" $MC
row 2 "--samples" montecarlo $P --samples=0
row 2 "--samples" montecarlo $P --samples=10000001
row 2 "--samples" montecarlo $P --samples=abc
row 0 "" $MC --seed=7
row 2 "--seed" $MC --seed=-1
row 2 "--seed" $MC --seed=abc
row 0 "" $MC --json
row 2 "--json=1" $MC --json=1
row 2 "unknown flag '--samples" sched $P --samples=4
row 2 "unknown flag '--seed" trace $P "$CMDTRACE" --seed=4
row 2 "unknown flag '--json'" sched $P --json
row 2 "unknown flag '--sample=100'" montecarlo $P --sample=100
row 2 "unknown flag '--bogus'" $MC --bogus

# --- fit -------------------------------------------------------------
DS="--datasheet=ddr3 --rate=1333 --width=16"
FIT="fit $P $DS --starts=1 --max-generations=1"
row 0 "" $FIT
row 0 "" fit $P --targets="$SRC/examples/data/fit_ddr3_vendor_low.json" \
    --starts=1 --max-generations=1
row 6 "" fit $P --targets="$DIR/missing.json"
row 2 "fit needs" fit $P
row 2 "--datasheet needs" fit $P --datasheet=ddr3
row 0 "" fit $P --datasheet=ddr2 --rate=667 --width=8 --starts=1 \
    --max-generations=1
row 2 "ddr4" $FIT --datasheet=ddr4
row 2 "--rate" $FIT --rate=0
row 2 "--rate" $FIT --rate=abc
row 2 "--width" $FIT --width=129
row 2 "--width" $FIT --width=abc
row 0 "" $FIT --edge=0.25
row 2 "--edge" $FIT --edge=2
row 2 "--edge" $FIT --edge=abc
row 0 "" $FIT --starts=2
row 2 "--starts" $FIT --starts=65
row 2 "--starts" $FIT --starts=abc
row 0 "" $FIT --max-generations=2
row 2 "--max-generations" $FIT --max-generations=0
row 2 "--max-generations" $FIT --max-generations=abc
row 0 "" $FIT --step=0.1
row 2 "--step" $FIT --step=0
row 2 "--step" $FIT --step=abc
row 0 "" $FIT --shrink=0.25
row 2 "--shrink" $FIT --shrink=1
row 2 "--shrink" $FIT --shrink=abc
row 0 "" $FIT --min-step=0.01
row 2 "--min-step" $FIT --min-step=2
row 2 "--min-step" $FIT --min-step=abc
row 0 "" $FIT --spread=0.1
row 2 "--spread" $FIT --spread=11
row 2 "--spread" $FIT --spread=abc
row 0 "" $FIT --seed=3
row 2 "--seed" $FIT --seed=-1
row 2 "--seed" $FIT --seed=abc
row 0 "" $FIT --report="$DIR/fit.json"
row 0 "" $FIT --json
row 2 "--list-parameters=1" fit --list-parameters=1
row 2 "unknown flag '--targets" montecarlo $P --targets=x.json
row 2 "unknown flag '--datasheet" montecarlo $P --datasheet=ddr3
row 2 "unknown flag '--rate" montecarlo $P --rate=1333
row 2 "unknown flag '--width" montecarlo $P --width=16
row 2 "unknown flag '--edge" montecarlo $P --edge=0.5
row 2 "unknown flag '--starts" montecarlo $P --starts=2
row 2 "unknown flag '--max-generations" sched $P --max-generations=2
row 2 "unknown flag '--step" sched $P --step=0.1
row 2 "unknown flag '--shrink" sched $P --shrink=0.5
row 2 "unknown flag '--min-step" sched $P --min-step=0.1
row 2 "unknown flag '--spread" sched $P --spread=0.1
row 2 "unknown flag '--report" montecarlo $P --report=x.json
row 2 "unknown flag '--list-parameters'" montecarlo $P --list-parameters
row 2 "unknown flag '--bogus'" $FIT --bogus

# --- sched -----------------------------------------------------------
SCHED="sched $P --count=20"
row 0 "" $SCHED
row 0 "" $SCHED --workload=mixed
row 2 "bogus" $SCHED --workload=bogus
row 2 "--count" sched $P --count=0
row 2 "--count" sched $P --count=10000001
row 2 "--count" sched $P --count=abc
row 0 "" $SCHED --seed=5
row 0 "" $SCHED --seed=4294967295
row 2 "--seed" $SCHED --seed=4294967296
row 2 "--seed" $SCHED --seed=abc
row 0 "" $SCHED --policy=inorder
row 0 "" $SCHED --policy=fcfs
row 0 "" $SCHED --policy=fr-fcfs
row 2 "bogus" $SCHED --policy=bogus
row 0 "" $SCHED --page=closed
row 2 "bogus" $SCHED --page=bogus
row 0 "" $SCHED --map=bank-row-col
row 0 "" $SCHED --map=xor
row 2 "bogus" $SCHED --map=bogus
row 0 "" $SCHED --window=8
row 2 "--window" $SCHED --window=0
row 2 "--window" $SCHED --window=4097
row 2 "--window" $SCHED --window=abc
row 0 "" $SCHED --write-frac=0.5
row 2 "--write-frac" $SCHED --write-frac=2
row 2 "--write-frac" $SCHED --write-frac=abc
row 0 "" $SCHED --locality=0.5
row 2 "--locality" $SCHED --locality=2
row 2 "--locality" $SCHED --locality=abc
row 0 "" $SCHED --zipf=1
row 2 "--zipf" $SCHED --zipf=5
row 2 "--zipf" $SCHED --zipf=abc
row 0 "" $SCHED --run-length=4
row 2 "--run-length" $SCHED --run-length=0
row 2 "--run-length" $SCHED --run-length=abc
row 0 "" $SCHED --jump=0.1
row 2 "--jump" $SCHED --jump=2
row 2 "--jump" $SCHED --jump=abc
row 0 "" $SCHED --matrix
row 2 "--matrix=1" $SCHED --matrix=1
row 2 "unknown flag '--workload" trace $P "$CMDTRACE" --workload=mixed
row 2 "unknown flag '--count" montecarlo $P --count=5
row 2 "unknown flag '--policy" montecarlo $P --policy=inorder
row 2 "unknown flag '--page" montecarlo $P --page=open
row 2 "unknown flag '--map" montecarlo $P --map=xor
row 2 "unknown flag '--window" montecarlo $P --window=4
row 2 "unknown flag '--write-frac" montecarlo $P --write-frac=0.5
row 2 "unknown flag '--locality" montecarlo $P --locality=0.5
row 2 "unknown flag '--zipf" montecarlo $P --zipf=1
row 2 "unknown flag '--run-length" montecarlo $P --run-length=4
row 2 "unknown flag '--jump" montecarlo $P --jump=0.1
row 2 "unknown flag '--matrix'" montecarlo $P --matrix
row 2 "unknown flag '--bogus'" $SCHED --bogus

# --- trace -----------------------------------------------------------
TRACE="trace $P $CMDTRACE"
row 0 "" $TRACE
row 0 "" $TRACE --window=4
row 4 "E-TRACE-WINDOW" $TRACE --window=0
row 2 "integer cycle count" $TRACE --window=abc
row 0 "" $TRACE --format=json
row 0 "" $TRACE --format=csv --window=4
row 2 "--window" $TRACE --format=csv
row 2 "xml" $TRACE --format=xml
row 0 "" $TRACE --check
row 2 "--check=1" $TRACE --check=1
row 0 "" $TRACE --serial
row 2 "--serial=1" $TRACE --serial=1
row 0 "" $TRACE --jobs=2
row 2 "unknown flag '--format" montecarlo $P --format=json
row 2 "unknown flag '--check'" montecarlo $P --check
row 2 "unknown flag '--serial'" montecarlo $P --serial
row 2 "unknown flag '--bogus'" $TRACE --bogus

# --- serve (never started: no --socket/--port) -----------------------
NEEDS="serve needs --socket"
row 2 "$NEEDS" serve
row 2 "$NEEDS" serve --queue=4
row 2 "--queue" serve --queue=0
row 2 "--queue" serve --queue=abc
row 2 "$NEEDS" serve --deadline=5
row 2 "--deadline" serve --deadline=-1
fixed 2 "abc" serve --deadline=abc
row 2 "$NEEDS" serve --max-deadline=30
row 2 "--max-deadline" serve --max-deadline=0
fixed 2 "abc" serve --max-deadline=abc
row 2 "$NEEDS" serve --idle-timeout=0
row 2 "--idle-timeout" serve --idle-timeout=-1
fixed 2 "1s" serve --idle-timeout=1s
row 2 "$NEEDS" serve --cache=16
row 2 "--cache" serve --cache=4097
row 2 "--cache" serve --cache=abc
row 2 "--port" serve --port=0
row 2 "--port" serve --port=65536
row 2 "--port" serve --port=abc
row 2 "unknown flag '--workers" serve --workers=2
row 2 "unknown flag '--retries" serve --retries=2
row 2 "unknown flag '--bogus'" serve --bogus
row 2 "unknown flag '--queue" montecarlo $P --queue=4
row 2 "unknown flag '--deadline" montecarlo $P --deadline=4
row 2 "unknown flag '--max-deadline" montecarlo $P --max-deadline=4
row 2 "unknown flag '--idle-timeout" montecarlo $P --idle-timeout=4
row 2 "unknown flag '--cache" montecarlo $P --cache=4
row 2 "unknown flag '--socket" montecarlo $P --socket=x.sock
row 2 "unknown flag '--port" montecarlo $P --port=9000

# --- fleet (never started) -------------------------------------------
NEEDS="fleet needs --socket"
row 2 "$NEEDS" fleet
row 2 "--worker-dir" fleet --port=9000
row 2 "$NEEDS" fleet --workers=2
row 2 "--workers" fleet --workers=0
row 2 "--workers" fleet --workers=abc
row 2 "$NEEDS" fleet --worker-dir="$DIR"
row 2 "$NEEDS" fleet --heartbeat=0.5
row 2 "--heartbeat" fleet --heartbeat=0
fixed 2 "2x" fleet --heartbeat=2x
row 2 "$NEEDS" fleet --heartbeat-deadline=3
row 2 "--heartbeat-deadline" fleet --heartbeat-deadline=-1
fixed 2 "abc" fleet --heartbeat-deadline=abc
row 2 "$NEEDS" fleet --restart-budget=2
row 2 "--restart-budget" fleet --restart-budget=1001
row 2 "--restart-budget" fleet --restart-budget=abc
row 2 "$NEEDS" fleet --restart-base-ms=100
row 2 "--restart-base-ms" fleet --restart-base-ms=0
row 2 "--restart-base-ms" fleet --restart-base-ms=abc
row 2 "$NEEDS" fleet --drain-timeout=5
row 2 "--drain-timeout" fleet --drain-timeout=0
fixed 2 "abc" fleet --drain-timeout=abc
row 2 "$NEEDS" fleet --failover-wait=1
row 2 "--failover-wait" fleet --failover-wait=0
fixed 2 "abc" fleet --failover-wait=abc
row 2 "$NEEDS" fleet --queue=4 --deadline=5 --max-deadline=30 \
    --idle-timeout=0 --cache=16 --jobs=1
row 2 "--queue" fleet --queue=0
row 2 "--deadline" fleet --deadline=-1
fixed 2 "abc" fleet --deadline=abc
fixed 2 "abc" fleet --max-deadline=abc
fixed 2 "abc" fleet --idle-timeout=abc
row 2 "--cache" fleet --cache=abc
row 2 "--port" fleet --port=abc
row 2 "unknown flag '--retries" fleet --retries=2
row 2 "unknown flag '--bogus'" fleet --bogus
row 2 "unknown flag '--worker-dir" serve --worker-dir=x
row 2 "unknown flag '--heartbeat=" serve --heartbeat=1
row 2 "unknown flag '--heartbeat-deadline" serve --heartbeat-deadline=1
row 2 "unknown flag '--restart-budget" serve --restart-budget=1
row 2 "unknown flag '--restart-base-ms" serve --restart-base-ms=1
row 2 "unknown flag '--drain-timeout" serve --drain-timeout=1
row 2 "unknown flag '--failover-wait" serve --failover-wait=1

# --- serve-send (empty stdin: never connects) ------------------------
SOCK="--socket=$DIR/none.sock"
NOREQ="no requests on stdin"
row 2 "serve-send needs --socket" serve-send
row 2 "$NOREQ" serve-send "$SOCK"
row 2 "$NOREQ" serve-send --port=9000
row 2 "--port" serve-send --port=0
row 2 "--port" serve-send --port=abc
row 2 "$NOREQ" serve-send "$SOCK" --retries=2
row 2 "--retries" serve-send "$SOCK" --retries=101
row 2 "--retries" serve-send "$SOCK" --retries=abc
row 2 "$NOREQ" serve-send "$SOCK" --retry-base-ms=10
row 2 "--retry-base-ms" serve-send "$SOCK" --retry-base-ms=0
row 2 "--retry-base-ms" serve-send "$SOCK" --retry-base-ms=abc
row 2 "unknown flag '--retries" montecarlo $P --retries=2
row 2 "unknown flag '--retry-base-ms" montecarlo $P --retry-base-ms=2
row 2 "unknown flag '--queue" serve-send "$SOCK" --queue=2
row 2 "unknown flag '--bogus'" serve-send "$SOCK" --bogus

if [ "$FAILED" -gt 0 ]; then
    echo "FAIL: $FAILED of $ROWS rows" >&2
    exit 1
fi
echo "PASS: $ROWS rows"
