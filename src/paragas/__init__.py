"""Gas computation mechanisms for parallel blockchain execution.

Exact (rational-arithmetic) tooling: a minimum-makespan scheduler under
lock-based conflicts, a family of gas computation mechanisms, a property
verification harness with known counterexamples, and a minimal fee market.
"""
from .core import (BlockError, DuplicateId, EmptyKeySet, MalformedDocument,
                   NonPositiveTime, NonPositiveWeight, Transaction, TxSet,
                   WeightTable, concatenate, format_rational,
                   make_transaction, parse_block, parse_weights,
                   render_block, similar, to_rational)
from .feemarket import (BASE_FEE_GRID, BaseFeeState, Bid, BlockResult,
                        WorkloadConfig, base_fee_update, build_block,
                        make_bid, simulate, workload)
from .gcm import MECHANISMS, TABLE_MECHANISMS, PricingEnv, gas
from .properties import (PROPERTIES, REGISTRY, CheckOutcome, FixtureMismatch,
                         MatrixReport, check_property, env_pool,
                         evaluate_cell, known_violations,
                         load_expected_matrix, property_matrix,
                         run_fixture_suite)
from .render import gantt_svg, gantt_text
from .sampling import SamplerConfig
from .scheduler import (InstanceTooLarge, Schedule, SchedulerConfig,
                        SubsetValueTable, ValueOracle, greedy_schedule,
                        makespan, optimal_makespan, optimal_schedule,
                        subset_value_table, validate_schedule)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
