"""Random dynamical systems on rational intervals.

Exact path-measure computations, stable interval partitions merged by
mutual-absolute-continuity certificates, stationary analysis of the
induced finite chain, and seeded simulation with empirical convergence
rates. See the README for the file format and the CLI.
"""

from .model import (AffineMap, DiscreteMeasure, Edge, Interval, Point,
                    PiecewiseConstant, RationalityPredicate, RdsError,
                    SystemSpec, ValidationReport, apply_map, as_point,
                    format_rational, markov_operator, parse_rational, prob,
                    push_forward, validate_system)
from .sysfile import format_system, load_system, parse_system, save_system
from .measures import (ExtendedRatio, XiParams, XiReport, cylinder_measure,
                       enumerate_cylinders, likelihood_ratio,
                       martingale_discrepancy, tail_mass_exact, xi_estimate)
from .partition import (BalancedProduct, Cell, FundamentalPartition,
                        IntervalPartition, LabeledChain, PartitionParams,
                        ProductGraph, UnbalancedProduct, classify_point,
                        extract_symbolic_chain, fundamental_partition,
                        lift_check, pair_certificate, refine_markov_partition,
                        stable_partition, tagged_partition,
                        verify_product_certificates)
from .graph import (Digraph, MomentResult, StationaryResult, digraph_of_chain,
                    exact_first_moment, is_aperiodic, is_irreducible,
                    is_recurrent, stationary_distribution,
                    stationary_from_matrix, terminal_components)
from .dynamics import (Indicator, Polynomial, RateReport, Trace,
                       class_frequencies, contraction_estimate,
                       convergence_rate, ergodic_average, parse_test_function,
                       push_cloud, simulate, stationary_cloud, w1_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
