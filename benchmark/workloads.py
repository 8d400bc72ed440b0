"""The benchmark's workloads and why each was chosen.

Every workload trains through `pipeline.train` on a generated training split
(drawn from the run seed), writes and reads the model back through
`data_io`, and scores a held-out split (always drawn from HELDOUT_SEED, like
the seed-999 split of acceptance criterion 7) one image at a time and then
as a whole through `pipeline.evaluate_checkpoint`.

Every workload reports every end-to-end metric, so each one trains. A
scoring-only workload (a seeded K=64 checkpoint at T=2048, D=64) would have
no fit_s, epoch_s or train_s; the forward layers it would stress, posteriors
and the encoder forward, are measured on train-mid's held-out pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import BlobSpec

HELDOUT_SEED = 999


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blobs: BlobSpec
    n_train_per_class: int
    n_heldout_per_class: int
    n_points: int
    config: dict = field(default_factory=dict)  # TrainConfig fields
    workers: int = 1
    # modules whose per-layer metrics are visible; None means all of them
    reported_modules: tuple[str, ...] | None = None
    # a workload that must produce byte-identical metrics rows to this one
    same_model_as: str | None = None


# Two broad, overlapping blobs: k-means with K=16 finds no clear structure
# and runs Lloyd to its 100-iteration cap on every seed, so the fitting work
# is the same from seed to seed and fit_s is comparable across runs. A 5%
# class shift in blob occupancy leaves held-out AP near 0.9.
_MID_BLOBS = BlobSpec(dim=32, n_blobs=2, std_lo=0.3, std_hi=0.5, shift=0.05)
_MID_CONFIG = dict(
    n_components=16, batch_size=8, joint_epochs=2, mode="theta-gmm-feature"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-mid",
            why=(
                "48 images, T=1000, D=32, K=16: large T*K*D per call, so gmm "
                "fitting, posteriors and both fisher backwards do most of the work"
            ),
            blobs=_MID_BLOBS,
            n_train_per_class=24,
            n_heldout_per_class=50,
            n_points=1000,
            config=_MID_CONFIG,
        ),
        Workload(
            name="train-mid-2w",
            why=(
                "train-mid with 2 worker processes: the only path through "
                "parallel; metrics rows must match train-mid byte for byte"
            ),
            blobs=_MID_BLOBS,
            n_train_per_class=24,
            n_heldout_per_class=50,
            n_points=1000,
            config=_MID_CONFIG,
            workers=2,
            # spans inside worker processes are not visible to the tracer
            reported_modules=("pipeline", "parallel", "trace"),
            same_model_as="train-mid",
        ),
        Workload(
            name="train-small-2d",
            why=(
                "criterion-7 shapes (120 images, T=32, D=2, K=2, 10 epochs): "
                "thousands of tiny calls, so per-call overhead and SDCA dominate"
            ),
            blobs=BlobSpec(dim=2, n_blobs=2, std_lo=0.15, std_hi=0.3, shift=0.2),
            n_train_per_class=60,
            n_heldout_per_class=100,
            n_points=32,
            config=dict(
                n_components=2,
                batch_size=24,
                eta=1e-4,
                svm_init_epochs=15,
                svm_epochs=120,
                joint_epochs=10,
                mode="theta-gmm-feature",
            ),
        ),
    )
}
