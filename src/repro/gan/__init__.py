"""Info-RNN-GAN: the paper's small-sample demand predictor (§V).

Architecture (Fig. 2):

* **Generator G** — a Bi-LSTM over per-slot inputs ``[z^t, c, x_{t-1}]``
  (noise, one-hot location latent code, previous demand) with a softplus
  head producing the predicted demand series `G(z^t, c^t)`.
* **Discriminator D** — a two-layer Bi-LSTM over demand series, pooled
  and squashed to a real/fake probability (Eq. 23).
* **Q head** — shares D's trunk and recovers the latent code `c'` from a
  series; minimising its cross-entropy maximises the InfoGAN mutual-
  information lower bound `L1(G, Q)` (Eq. 25-26).

:class:`GanDemandPredictor` wraps the model behind the common
:class:`repro.prediction.DemandPredictor` interface used by `OL_GAN`.
"""

from repro.gan.discriminator import Discriminator
from repro.gan.evaluation import latent_recovery_accuracy
from repro.gan.generator import Generator
from repro.gan.infogan import GanLosses, InfoRnnGan
from repro.gan.predictor import GanDemandPredictor
from repro.gan.qhead import QHead

__all__ = [
    "Discriminator",
    "latent_recovery_accuracy",
    "Generator",
    "GanLosses",
    "InfoRnnGan",
    "GanDemandPredictor",
    "QHead",
]
