#!/usr/bin/env bash
# Seeded `lpmch sample` streams, `lpmch density` values and seeded
# `lpmch verify` reports must be byte-identical across commits.
#
# usage: .github/scripts/compare_sample_streams.sh BASE
#
# Unpacks BASE with `git archive` into a temporary directory, runs lpmch
# from each tree's src/ (so whatever lpmch is installed does not matter) and
# compares each pair of outputs with cmp:
#   - `lpmch sample` of all four laws, at n = 3 and n = 10, in both cones,
#     with fixed seeds (16 streams);
#   - `lpmch density` of the three laws with a density, at the centre point
#     of each cone and n, from the same inputs (12 values, printed with
#     %.17g, so equal text is equal bits);
#   - `lpmch verify` of every inequality on the three preset walks at a
#     fixed seed (15 reports). A report prints path frequencies, so it
#     catches a moved stream or walk, not a last-bit change of the walk's
#     distances: scaling the Wishart steps' increments by 1 + 1e-6 left all
#     15 reports unchanged, by 1.01 changed them.
# Needs Python with NumPy; exits non-zero at the first pair that differs.
#
# A change that moves outputs on purpose records each moved one as a line
# in .github/stream_moves of its own tree: "DIST CONE N" for a stream (e.g.
# "inv-wishart tpm 10"), "density DIST CONE N" for a density value and
# "verify PRESET INEQUALITY" for a report; lines from # on are ignored.
# Those pairs are compared and reported but do not fail the check. The next
# change, whose base then carries the moved outputs, empties the file again.
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


for n, pattern in ((3, "+-+"), (10, "+--+-++-+-")):
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
PY

moves=$head/.github/stream_moves
moved() {
  [ -f "$moves" ] && sed 's/#.*//' "$moves" | awk '{$1=$1; print}' | grep -qxF "$1"
}

compared=0
skipped=0
# compare KEY ARGS...: runs `lpmch ARGS...` from both trees and compares
# the outputs, unless KEY is listed as moved.
compare() {
  local key=$1 out=$work/$(echo "$1" | tr ' ' '.') tree
  shift
  for side in base head; do
    tree=$head
    [ "$side" = base ] && tree=$work/base
    PYTHONPATH="$tree/src" python -m lpmch.cli "$@" > "$out.$side"
  done
  if moved "$key"; then
    if cmp -s "$out.base" "$out.head"; then
      echo "$key: listed as moved, but byte-identical"
    else
      echo "$key: moved, as listed in .github/stream_moves"
    fi
    skipped=$((skipped + 1))
    return
  fi
  cmp "$out.base" "$out.head"
  compared=$((compared + 1))
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

for preset in pd_walk mixed_box_walk deterministic_walk; do
  echo "{\"preset\": \"$preset\"}" > "$work/$preset.json"
  for inequality in mogulskii_min mogulskii_max ottaviani_skorohod levy_ottaviani \
      hoffmann_jorgensen; do
    compare "verify $preset $inequality" verify --inequality "$inequality" \
      --config "$work/$preset.json" --seed 20251 --trials 2000
  done
done
echo "$compared seeded outputs byte-identical to $base ($skipped listed as moved)"
