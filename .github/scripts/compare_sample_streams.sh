#!/usr/bin/env bash
# Seeded `lpmch sample` streams must be byte-identical across commits.
#
# usage: .github/scripts/compare_sample_streams.sh BASE
#
# Checks BASE out with `git worktree` next to the current checkout, runs
# `lpmch sample` from each tree's src/ (so whatever lpmch is installed does
# not matter) for all four laws, at n = 3 and n = 10, in both cones, with
# fixed seeds, and compares each pair of streams with cmp. Needs Python with
# NumPy; exits non-zero at the first pair that differs.
#
# A change that moves streams on purpose records each moved stream as a line
# "DIST CONE N" (e.g. "inv-wishart tpm 10"; lines from # on are ignored) in
# .github/stream_moves of its own tree. Those pairs are compared and
# reported but do not fail the check. The next change, whose base then
# carries the moved streams, empties the file again.
set -euo pipefail

base=$1
head=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
  git -C "$head" worktree remove --force "$work/base" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$head" worktree add --detach "$work/base" "$base" >/dev/null

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
      for side in base head; do
        tree=$head
        [ "$side" = base ] && tree=$work/base
        PYTHONPATH="$tree/src" python -m lpmch.cli sample --dist "$dist" --cone "$cone" \
          --seed 20251 --count 200 "${flags[@]}" > "$work/$side.$dist.$cone.$n.jsonl"
      done
      if moved "$dist $cone $n"; then
        if cmp -s "$work/base.$dist.$cone.$n.jsonl" "$work/head.$dist.$cone.$n.jsonl"; then
          echo "$dist $cone n=$n: listed as moved, but byte-identical"
        else
          echo "$dist $cone n=$n: moved, as listed in .github/stream_moves"
        fi
        skipped=$((skipped + 1))
        continue
      fi
      cmp "$work/base.$dist.$cone.$n.jsonl" "$work/head.$dist.$cone.$n.jsonl"
      compared=$((compared + 1))
    done
  done
done
echo "$compared seeded sample streams byte-identical to $base ($skipped listed as moved)"
