"""Link-level simulator and BER toolkit for aligned interference networks."""

from .network import NetworkConfig, substream
from .solvers import (IaSolution, evaluate_true_sinr, maxsinr_solve_batch,
                      minil_solve_batch)
from .modem import (BerEstimate, ConstellationShape, ber_awgn_instant,
                    demodulate, minil_avg_ber, modulate, shape_for_bits,
                    svd_avg_ber)
from .bitload import greedy_bitload
from .simulate import estimate_ber, fig1_stats, run_frames, sweep

__all__ = [
    "BerEstimate", "ConstellationShape", "IaSolution", "NetworkConfig",
    "ber_awgn_instant", "demodulate", "estimate_ber", "evaluate_true_sinr",
    "fig1_stats", "greedy_bitload", "maxsinr_solve_batch", "minil_avg_ber",
    "minil_solve_batch", "modulate", "run_frames",
    "shape_for_bits", "substream", "svd_avg_ber", "sweep",
]

__version__ = "0.1.0"
