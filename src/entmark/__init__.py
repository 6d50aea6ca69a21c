"""Entropy-gated sampling watermark for autoregressive text generation.

Generation stays unwatermarked until the running watermark entropy crosses a
threshold, hashes the prefix into a key sequence, and continues with
key-driven sampling (inverse-transform or binary). Detection aligns text
blocks against key blocks with a negative-covariance cost and ranks the best
alignment among freshly resampled keys to get a p-value.
"""

from .attacks import AttackSpec, apply_attacks, attack, parse_attack_spec
from .coding import TokenCode, build_codes, build_huffman_codes, codes_for_lm
from .detection import (DetectionConfig, DetectionReport, PhiResult, detect_pvalue,
                        detect_seed_scan, h_hard, h_soft, min_block_cost, phi)
from .generation import (GenerationResult, generate, generate_baseline, key_sequence_for,
                         replay_boundary, watermark_entropy)
from .keys import (BsKeySequence, ItsKeySequence, PRF_ID, SeedBlock, derive_key_sequence,
                   derive_prf_key, resample_key_sequence)
from .lm import (MarkovLM, Vocabulary, apply_temperature, apply_top_p, build_vocabulary,
                 load_lm, peaked_lm, save_lm, skewed_lm, tokenize, train_from_text,
                 train_markov, uniform_lm)
from .metrics import RocSummary, auc_score, roc_auc, tpr_at_fpr
from .sampling import Row, row_source, sample_bs, sample_bs_many, sample_its, sample_multinomial

__version__ = "0.1.0"
