"""The ``train-epoch`` job: ``Trainer.fit`` over windows of simulated races.

Runs inside the training worker process (``train_worker.py``) for the
end-to-end run, and inside the benchmark process for the traced run.  One
operation is one optimizer step, timed between the batches handed to
``fit``: from the moment a batch is yielded to the moment the trainer asks
for the next one.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import cpu_seconds
from repro.data.features import build_race_features
from repro.data.loader import BatchLoader
from repro.data.schema import FeatureSpec
from repro.data.windows import make_windows
from repro.models.deep.rankmodel import RankSeqModel
from repro.nn import Adam, Trainer
from repro.simulation.telemetry import RaceTelemetry

BATCH_SIZE = 64
ENCODER, DECODER, HIDDEN, LAYERS = 60, 2, 40, 2
#: window strides: about 34 training and 4 validation batches per epoch
TRAIN_STRIDE, VAL_STRIDE = 6, 20
RANK_CHANGE_WEIGHT = 9.0
PROBE_WINDOWS = 8
PROBE_ENTRIES = 12
FD_EPS = 1e-5
DETERMINISM_BATCHES = 4


def step_timer(loader, marks: List[Tuple[float, float]]):
    """Batch callable for ``Trainer.fit`` recording each optimizer step's interval."""

    def batches():
        for batch in loader:
            start = time.perf_counter()
            yield batch
            marks.append((start, time.perf_counter()))

    return batches


class TrainJob:
    """Windows, loaders and a model built from saved races (the set-up)."""

    def __init__(self, data_dir: Path, seed: int) -> None:
        self.seed = int(seed)
        paths = sorted(Path(data_dir).glob("*.npz"))
        races = [RaceTelemetry.load(str(path)) for path in paths]
        train_series = [s for race in races[:-1] for s in build_race_features(race)]
        val_series = build_race_features(races[-1])
        self.spec = FeatureSpec()
        self.train_set = make_windows(
            train_series, ENCODER, DECODER, stride=TRAIN_STRIDE, rank_change_loss_weight=RANK_CHANGE_WEIGHT
        )
        self.val_set = make_windows(
            val_series, ENCODER, DECODER, stride=VAL_STRIDE, rank_change_loss_weight=RANK_CHANGE_WEIGHT
        )
        self.val_loader = BatchLoader(self.val_set, BATCH_SIZE, shuffle=False, spec=self.spec)
        self.probe = next(iter(BatchLoader(self.train_set, PROBE_WINDOWS, shuffle=False, spec=self.spec)))

    def model(self) -> RankSeqModel:
        return RankSeqModel(
            num_covariates=self.spec.num_covariates,
            hidden_dim=HIDDEN,
            num_layers=LAYERS,
            encoder_length=ENCODER,
            decoder_length=DECODER,
            rng=np.random.default_rng(self.seed),
        )

    def loader(self, dataset=None) -> BatchLoader:
        dataset = self.train_set if dataset is None else dataset
        return BatchLoader(dataset, BATCH_SIZE, shuffle=True, spec=self.spec, rng=self.seed)

    def fit(self, epochs: int, marks: list, dataset=None):
        model = self.model()
        trainer = Trainer(model, optimizer=Adam(model.parameters(), lr=1e-3), max_epochs=epochs)
        return trainer.fit(step_timer(self.loader(dataset), marks), self.val_loader.__iter__)

    # ------------------------------------------------------------------
    def gradient_probe(self):
        """Backprop gradients and central finite differences on sampled entries."""
        model = self.model()
        params = model.parameters()
        model.zero_grad()
        model.loss_and_backward(self.probe)
        rng = np.random.default_rng(self.seed)
        analytic, numeric = [], []
        for _ in range(PROBE_ENTRIES):
            param = params[int(rng.integers(len(params)))]
            index = int(rng.integers(param.data.size))
            analytic.append(float(param.grad.flat[index]))
            original = float(param.data.flat[index])
            param.data.flat[index] = original + FD_EPS
            plus = model.validation_loss(self.probe)
            param.data.flat[index] = original - FD_EPS
            minus = model.validation_loss(self.probe)
            param.data.flat[index] = original
            numeric.append((plus - minus) / (2 * FD_EPS))
        return analytic, numeric

    def determinism_probe(self):
        """Two short fits from the same seed; returns both loss histories."""
        subset = self.train_set.subset(np.arange(DETERMINISM_BATCHES * BATCH_SIZE))
        histories = []
        for _ in range(2):
            history = self.fit(2, [], dataset=subset)
            histories.append(list(history.train_loss) + list(history.val_loss))
        return histories

    def run(self, seconds: float, probes: bool = True, epochs: Optional[int] = None) -> Dict[str, object]:
        """Warm-up epoch, optionally the probes, then the timed fit of whole epochs.

        Without ``epochs`` the fit runs enough epochs (at least two) to last
        ``seconds`` at the warm-up epoch's pace.
        """
        start = time.perf_counter()
        self.fit(1, [])
        warm_epoch_s = time.perf_counter() - start
        analytic, numeric = self.gradient_probe() if probes else ([], [])
        histories = self.determinism_probe() if probes else []
        if epochs is None:
            epochs = max(2, math.ceil(seconds / warm_epoch_s))
        marks: List[Tuple[float, float]] = []
        cpu0 = cpu_seconds(os.getpid())
        start = time.perf_counter()
        history = self.fit(epochs, marks)
        timed_s = time.perf_counter() - start
        cpu_s = cpu_seconds(os.getpid()) - cpu0
        return {
            "epochs": epochs,
            "batches_per_epoch": len(self.loader()),
            "steps": marks,
            "window": (start, start + timed_s),
            "timed_s": timed_s,
            "cpu_s": cpu_s,
            "warm_epoch_s": warm_epoch_s,
            "train_loss": list(history.train_loss),
            "val_loss": list(history.val_loss),
            "grad_analytic": analytic,
            "grad_numeric": numeric,
            "histories": histories,
        }
