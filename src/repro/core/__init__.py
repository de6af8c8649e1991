"""The paper's contribution: DBT transformations and the end-to-end pipelines."""

from .analytic import (
    MatMulModel,
    MatVecModel,
    matmul_irregular_delay_first_row,
    matmul_irregular_delay_wraparound,
    matmul_irregular_feedback_registers,
    matmul_regular_feedback_registers,
    matmul_steps,
    matmul_utilization,
    matmul_utilization_limit,
    matvec_feedback_delay,
    matvec_feedback_registers,
    matvec_steps,
    matvec_utilization,
    matvec_utilization_limit,
)
from .dbt import BlockAssignment, DBTByRowsTransform, dbt_by_rows
from .dbt_transposed import DBTTransposedByRowsTransform, dbt_transposed_by_rows
from .matmul import MatMulSolution
from .matvec import MatVecSolution
from .operands import MatMulOperands, OperandBand
from .recovery import (
    AccumulationChain,
    FeedbackClassification,
    PartialResultMap,
    classify_feedback_delays,
)
from .schedule import OverlapPartition, plan_overlap_partition

__all__ = [
    "AccumulationChain",
    "BlockAssignment",
    "DBTByRowsTransform",
    "DBTTransposedByRowsTransform",
    "FeedbackClassification",
    "MatMulModel",
    "MatMulOperands",
    "MatMulSolution",
    "MatVecModel",
    "MatVecSolution",
    "OperandBand",
    "OverlapPartition",
    "PartialResultMap",
    "classify_feedback_delays",
    "dbt_by_rows",
    "dbt_transposed_by_rows",
    "matmul_irregular_delay_first_row",
    "matmul_irregular_delay_wraparound",
    "matmul_irregular_feedback_registers",
    "matmul_regular_feedback_registers",
    "matmul_steps",
    "matmul_utilization",
    "matmul_utilization_limit",
    "matvec_feedback_delay",
    "matvec_feedback_registers",
    "matvec_steps",
    "matvec_utilization",
    "matvec_utilization_limit",
    "plan_overlap_partition",
]
