"""latsec: desk-scale nested-lattice secrecy toolkit.

Exact entropy side-information bounds, nested-lattice sum representation,
universal-hash privacy amplification with an explicit secret encoder,
seeded-extractor key generation, a wiretap-channel simulator with exact
leakage accounting, and the closed-form secure-degrees-of-freedom map.
"""

from .entropy import DiscreteDistribution, renyi2_entropy, shannon_entropy
from .lattice import (LatticeVector, NestedLatticePair, RepresentationIndex,
                      ScaledLattice, dithered_sum_secrecy_report, reconstruct_sum,
                      representation_index)
from .hashing import (BitLabeling, EncoderKit, FiniteFieldMatrix, build_encoder,
                      decode_secret, encode_secret, exact_hashed_entropy,
                      full_rank_check, full_rank_lower_bound, privacy_amp_bound,
                      sample_linear_hash, secret_rate_select)
from .extractor import (ExtractorSpec, KeyProtocolSetup, KeyTranscript, extract,
                        key_secrecy_report)
from .channel import (ChannelConfig, LayeredCodebook, SecrecySystem, Transcript,
                      build_system, exact_leakage, leakage_trend, make_codebook,
                      scale_channel, secrecy_rate_report, select_secrecy_hash, transmit)
from .sdof import (DofPoint, GainDecomposition, alpha_of, beta_of, decompose_gain,
                   sdof_landscape, sdof_of)

__version__ = "0.1.0"
