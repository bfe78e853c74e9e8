"""Learning perturb-and-MAP structured predictors.

Enumerable structured-output families, Gumbel-perturbed decoding with exact
CRF distributions, exact and randomized (candidate-set) losses, a greedy
proposal sampler, moment-matching and max-margin training with L1 proximal
steps, closed-form generalization bounds, and a reproducible synthetic
experiment harness.
"""

from .bounds import (BoundInputs, approximation_error, beta_condition, generalization_bound,
                     sample_size_condition, statistical_error, total_bound)
from .gumbel_crf import (CandidateSets, CrfDistribution, WeightVector, as_candidate_sets,
                         as_weights, crf_pmf, full_candidate_set, gumbel_from_uniform,
                         map_decode, perturbed_decode)
from .harness import (ExperimentConfig, MetricsRecord, SummaryRow, family_label,
                      generate_dataset, generate_ground_truth, load_dataset, load_weights,
                      parse_family, parse_family_list, run_experiment, run_repetition,
                      save_dataset, save_weights, summarize, write_metrics_csv,
                      write_summary_csv)
from .losses import (Dataset, LossKind, LossReport, exact_crf_loss, hamming_loss, loss_gap,
                     randomized_loss)
from .proposal import (ProposalConfig, alpha_schedule, augment, build_candidate_sets,
                       propose, proposal_quality_frequency)
from .spaces import (DagFamily, EnumeratedSpace, FamilyTooLargeError, SpanningTreeFamily,
                     StructuredOutput, SubsetFamily, feature_map, make_input,
                     ordered_pair_index, space, unordered_pair_index)
from .trainer import (Method, TrainConfig, TrainTrace, beta_schedule, hinge_loss, log_gain,
                      log_gain_gradient, log_likelihood_gradient, soft_threshold, train_crf,
                      train_svm)

__version__ = "0.1.0"
