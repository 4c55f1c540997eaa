"""
Checking the error bound after the fact
=======================================

The bound is not taken on faith: verify_error_bound maps every input
point to the segment that covers it and measures the distance to that
segment's line. This demo round-trips a corpus through CSV on the way,
since that is how real runs are stored.
"""

import tempfile
from pathlib import Path

from trajsimp import (
    FitConfig,
    average_error,
    emit_segments,
    gen_random_walk,
    ingest_csv,
    max_error,
    simplify,
    verify_error_bound,
    write_corpus,
)

zeta = 20.0
with tempfile.TemporaryDirectory(prefix="trajsimp-demo-") as workdir:
    corpus_path = Path(workdir) / "walk.csv"
    segments_path = Path(workdir) / "walk_segments.csv"

    # One jittery 5,000-point random walk, written and read back as CSV so
    # the check runs against exactly what a file consumer would see.
    write_corpus({"walk": gen_random_walk(5000, seed=7)}, str(corpus_path))
    traj = ingest_csv(str(corpus_path))["walk"]

    rep = simplify(traj, FitConfig(zeta=zeta))
    rep.traj_id = "walk"
    emit_segments(rep, str(segments_path))
    print(f"compressed {len(traj)} points to {len(rep.segments)} segments at zeta={zeta:g}")
    print(f"segments written to {segments_path.name} in a temporary directory")

ok, violations = verify_error_bound(rep, traj, zeta)
print(f"\nbound check at zeta={zeta:g}: {'ok' if ok else 'VIOLATED'}")
print(f"  average deviation: {average_error(rep, traj):.3f}")
print(f"  maximum deviation: {max_error(rep, traj):.3f}")

# Checking against a tighter bound than the one used for compression
# shows what a failure report looks like: index of the offending input
# point plus its measured distance.
tight = zeta / 4
ok, violations = verify_error_bound(rep, traj, tight)
print(f"\nbound check at zeta={tight:g} (tighter than compression): {'ok' if ok else 'VIOLATED'}")
for idx, dist in violations[:5]:
    print(f"  point {idx}: {dist:.3f} > {tight:g}")
print(f"  ... {len(violations)} points over the tighter bound in total")
print("\nthe same check from the command line, on a corpus CSV such as walk.csv:")
print(f"  trajsimp verify --input walk.csv --epsilon {zeta:g}")
