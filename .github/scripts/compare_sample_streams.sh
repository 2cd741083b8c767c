#!/usr/bin/env bash
# Seeded `lpmch sample` streams, `lpmch density` values, seeded
# `lpmch verify` reports, seeded walk distances and `lpmch classify` /
# `lpmch factor` / `lpmch resign` outputs must be byte-identical across
# commits.
#
# usage: .github/scripts/compare_sample_streams.sh BASE
#
# Unpacks BASE with `git archive` into a temporary directory, runs lpmch
# from each tree's src/ (so whatever lpmch is installed does not matter) and
# compares each pair of outputs with cmp:
#   - `lpmch sample` of all four laws, at n = 3 and n = 10, in both cones,
#     with fixed seeds (16 streams of 200 draws), and three streams at the
#     seams of the writer, which prints a block of draws per write: a
#     Wishart stream at n = 1, one of no draws, and one at n = 10 a draw
#     longer than its 1310-draw block (3 streams);
#   - `lpmch density` of the three laws with a density, at the centre point
#     of each cone and n, from the same inputs (12 values, printed with
#     %.17g, so equal text is equal bits);
#   - `lpmch verify` of every inequality on the three preset walks at a
#     fixed seed (15 reports). A report prints path frequencies, so it
#     catches a moved stream or walk, not a last-bit change of the walk's
#     distances: scaling the Wishart steps' increments by 1 + 1e-6 left all
#     15 reports unchanged, by 1.01 changed them;
#   - the SHA-1 of the `WalkStats` bytes (d_z1, d_to_end, d_inc) of seeded
#     walks, which the reports above miss: the three preset walks at 20000
#     paths and an n = 10 Wishart star walk at 5000 paths (4 outputs). Row
#     sums of n = 10 increments folded column by column, a last-bit change,
#     left all 15 reports unchanged and moved the Wishart walk's SHA-1;
#   - `lpmch classify`, `lpmch factor` against the canonical diagonal basis
#     and `lpmch factor --basis FILE` against a general basis of the same
#     pattern, at n = 10 and n = 40, in both cones (12 outputs). n = 40 is
#     past the 32-row blocks of the elimination and the triangular inverse;
#   - `lpmch geodesic --t 0.25` and `lpmch mean` of that point and basis,
#     at the same n and cones (8 outputs). Each classifies both matrices,
#     derives their factors and builds the result from a factor that
#     lpm_geodesic or log_cholesky_mean made, without cone_compose's checks;
#   - `lpmch resign` of the LPM point at n = 10 and n = 40 to the pattern
#     +-+-...+- (2 outputs), the one matrix-valued command that the
#     outputs above leave out;
#   - `lpmch ssrpm-check` of the Toeplitz matrices b J + (a - b) I at n = 12
#     and n = 14, whose patterns mix signs, of an almost-N matrix at n = 8,
#     and of a definite Toeplitz matrix at n = 12 whose last diagonal entry
#     makes only minors with the last index fail, so that the check runs to
#     its last level before it prints "not SSRPM" (4 outputs).
# 76 outputs in all.
# Needs Python with NumPy; exits non-zero at the first pair that differs.
#
# A change that moves outputs on purpose records each moved one as a line
# in .github/stream_moves of its own tree: "DIST CONE N" for a stream (e.g.
# "inv-wishart tpm 10"), "DIST CONE N COUNT" for a stream of COUNT draws
# other than 200 (e.g. "wishart lpm 10 1311"), "density DIST CONE N" for a
# density value,
# "verify PRESET INEQUALITY" for a report, "walkstats NAME" (a preset or
# wishart_star10) for a walk's distances, "classify CONE N",
# "factor CONE N" or "factor-basis CONE N" for a classification or a factor,
# "geodesic CONE N" or "mean CONE N" for a geodesic point or a mean,
# "resign lpm N" for a re-signed point, and
# "ssrpm-check NAME" (toeplitz12, toeplitz14, almost_n8, not_ssrpm12) for
# an SSRPM check;
# lines from # on are ignored.
# Those pairs are compared and reported, and must differ: a listed pair
# that is byte-identical fails the check, so a stale line cannot hide a later
# move. The next change, whose base then carries the moved outputs, empties
# the file again.
set -euo pipefail

base=$1
head=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$head" archive "$base" | tar -x -C "$work/base"

# Inputs: a PD scale matrix, an LPM centre point and its reversal (a TPM
# point with the same pattern), and a coordinate covariance, per n.
python - "$work" <<'PY'
import json
import sys

import numpy as np

work = sys.argv[1]


def dump(name, A):
    with open(f"{work}/{name}.json", "w") as fh:
        json.dump({"dim": len(A), "rows": np.asarray(A).tolist()}, fh)


for n, pattern in ((1, "-"), (3, "+-+"), (10, "+--+-++-+-")):
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = (Q * rng.uniform(0.5, 2.0, n)) @ Q.T
    eps = np.array([1.0 if c == "+" else -1.0 for c in pattern])
    signs = eps * np.concatenate(([1.0], eps[:-1]))
    L = np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n) + np.diag(rng.uniform(0.5, 2.0, n))
    m0 = (L * signs) @ L.T
    dump(f"sigma{n}", (sigma + sigma.T) / 2)
    dump(f"m0_lpm{n}", (m0 + m0.T) / 2)
    dump(f"m0_tpm{n}", ((m0 + m0.T) / 2)[::-1, ::-1])
    dump(f"st{n}", 0.02 * np.eye(n * (n + 1) // 2))
    with open(f"{work}/pattern{n}", "w") as fh:
        fh.write(pattern)

# A point and a general basis of one pattern per n, built like the
# workflow's 40 x 40 matrix, and their reversals (TPM points of that pattern).
for n in (10, 40):
    rng = np.random.default_rng(n)
    eps = rng.choice((1.0, -1.0), n)
    signs = eps * np.concatenate(([1.0], eps[:-1]))
    for name in ("point", "basis"):
        L = np.eye(n) + 0.1 * np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
        A = (L * signs) @ L.T
        dump(f"{name}_lpm{n}", (A + A.T) / 2)
        dump(f"{name}_tpm{n}", ((A + A.T) / 2)[::-1, ::-1])


def toeplitz(a, b, n):
    return b * np.ones((n, n)) + (a - b) * np.eye(n)


# SSRPM checks: mixed-sign Toeplitz patterns, an almost-N matrix (all proper
# principal minors negative, the determinant positive; c lies mid-way in its
# admissible interval), and a matrix that fails only at its last index.
dump("toeplitz12", toeplitz(-1.5, 0.4, 12))
dump("toeplitz14", toeplitz(1.0, -0.23, 14))
a, b, n = -1.0, -2.0, 8
almost_n = toeplitz(a, b, n)
almost_n[-1, -1] = ((n - 2) * b**2 / (a + (n - 3) * b) + (n - 1) * b**2 / (a + (n - 2) * b)) / 2
dump("almost_n8", almost_n)
not_ssrpm = toeplitz(2.0, 0.5, 12)
not_ssrpm[-1, -1] = 0.1
dump("not_ssrpm12", not_ssrpm)
PY

# walkstats.py WORK NAME: the SHA-1 of the distance arrays of one seeded walk.
cat > "$work/walkstats.py" <<'PY'
import hashlib
import json
import sys

import numpy as np

from lpmch import DistributionSpec, RngStream, pattern_from_string
from lpmch.inequalities import INEQUALITIES, PRESETS, preset_config, simulate_walk

work, name = sys.argv[1:]
if name in PRESETS:
    walk, params = preset_config(name, INEQUALITIES[0])
    paths, group, p = 20000, params["group"], params.get("p", 2)
else:  # wishart_star10
    with open(f"{work}/sigma10.json") as fh:
        sigma = np.array(json.load(fh)["rows"])
    with open(f"{work}/pattern10") as fh:
        pattern = pattern_from_string(fh.read())
    walk = [DistributionSpec(kind="wishart", pattern=pattern, cone="lpm", sigma=sigma / 10,
                             dof=12)] * 10
    paths, group, p = 5000, "star", 2
stats = simulate_walk(RngStream(20251), walk, paths, group=group, p=p)
digest = hashlib.sha1()
for a in (stats.d_z1, stats.d_to_end, stats.d_inc):
    digest.update(np.ascontiguousarray(a).tobytes())
print(digest.hexdigest())
PY

moves=$head/.github/stream_moves
moved() {
  [ -f "$moves" ] && sed 's/#.*//' "$moves" | awk '{$1=$1; print}' | grep -qxF "$1"
}

compared=0
skipped=0
# compare_command KEY COMMAND...: runs COMMAND with each tree's lpmch and
# compares the outputs, unless KEY is listed as moved.
compare_command() {
  local key=$1 out=$work/$(echo "$1" | tr ' ' '.') tree
  shift
  for side in base head; do
    tree=$head
    [ "$side" = base ] && tree=$work/base
    PYTHONPATH="$tree/src" "$@" > "$out.$side"
  done
  if moved "$key"; then
    if cmp -s "$out.base" "$out.head"; then
      echo "$key: listed as moved in .github/stream_moves, but byte-identical" >&2
      exit 1
    fi
    echo "$key: moved, as listed in .github/stream_moves"
    skipped=$((skipped + 1))
    return
  fi
  cmp "$out.base" "$out.head"
  compared=$((compared + 1))
}

# compare KEY ARGS...: compares the outputs of `lpmch ARGS...`.
compare() {
  local key=$1
  shift
  compare_command "$key" python -m lpmch.cli "$@"
}

for n in 3 10; do
  pattern=$(cat "$work/pattern$n")
  for cone in lpm tpm; do
    for dist in wishart inv-wishart cholesky-normal clone; do
      case $dist in
        cholesky-normal)
          flags=(--m0 "$work/m0_$cone$n.json" --sigma-tilde "$work/st$n.json") ;;
        clone)
          flags=(--sigma "$work/sigma$n.json" --dof $((n + 2)) --k $((n / 2))) ;;
        *)
          flags=(--sigma "$work/sigma$n.json" --dof $((n + 2)) "--epsilon=$pattern") ;;
      esac
      compare "$dist $cone $n" sample --dist "$dist" --cone "$cone" \
        --seed 20251 --count 200 "${flags[@]}"
      [ "$dist" = clone ] && continue
      compare "density $dist $cone $n" density "$work/m0_$cone$n.json" \
        --dist "$dist" --cone "$cone" "${flags[@]}"
    done
  done
done

# Wishart streams at the seams of the writer: n = 1, no draws, and a draw
# past the 1310-draw block at n = 10.
for seam in "1 200" "10 0" "10 1311"; do
  read -r n count <<< "$seam"
  key="wishart lpm $n"
  [ "$count" = 200 ] || key="$key $count"
  compare "$key" sample --dist wishart --cone lpm --seed 20251 --count "$count" \
    --sigma "$work/sigma$n.json" --dof $((n + 2)) "--epsilon=$(cat "$work/pattern$n")"
done

for n in 10 40; do
  for cone in lpm tpm; do
    point=$work/point_$cone$n.json
    compare "classify $cone $n" classify "$point" --cone "$cone"
    compare "factor $cone $n" factor "$point" --cone "$cone"
    compare "factor-basis $cone $n" factor "$point" --cone "$cone" \
      --basis "$work/basis_$cone$n.json"
    compare "geodesic $cone $n" geodesic "$point" "$work/basis_$cone$n.json" \
      --cone "$cone" --t 0.25
    compare "mean $cone $n" mean "$point" "$work/basis_$cone$n.json" --cone "$cone"
  done
  compare "resign lpm $n" resign "$work/point_lpm$n.json" --to "$(printf '+-%.0s' $(seq $((n / 2))))"
done

for name in toeplitz12 toeplitz14 almost_n8 not_ssrpm12; do
  compare "ssrpm-check $name" ssrpm-check "$work/$name.json"
done

for preset in pd_walk mixed_box_walk deterministic_walk; do
  echo "{\"preset\": \"$preset\"}" > "$work/$preset.json"
  for inequality in mogulskii_min mogulskii_max ottaviani_skorohod levy_ottaviani \
      hoffmann_jorgensen; do
    compare "verify $preset $inequality" verify --inequality "$inequality" \
      --config "$work/$preset.json" --seed 20251 --trials 2000
  done
done
for name in pd_walk mixed_box_walk deterministic_walk wishart_star10; do
  compare_command "walkstats $name" python "$work/walkstats.py" "$work" "$name"
done
echo "$compared seeded outputs byte-identical to $base ($skipped listed as moved)"
