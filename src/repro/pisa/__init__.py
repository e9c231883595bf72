"""PISA data-plane model and simulator.

Implements the architecture of the paper's §2 (Figure 2/3): targets and
resource budgets (:mod:`resources`), packets and the PHV (:mod:`packet`,
:mod:`phv`), stateful registers (:mod:`registers`), match-action tables
(:mod:`tables`), hash units (:mod:`hashing`), ALU semantics (:mod:`alu`),
and the staged pipeline interpreter (:mod:`pipeline`) that executes
compiled P4All programs — the reproduction's substitute for the Tofino.
"""

from .alu import AluError, apply_binary, apply_unary
from .hashing import MultiplyShiftHash
from .interp import ExecContext, SimulationError
from .packet import Packet, make_flow_packets
from .parser import Deparser, FieldSpec, PacketParser, ParseState
from .parser import ParseError as PacketParseError
from .phv import Phv, PhvError, PhvLayout
from .pipeline import ENGINES, Pipeline, ValidationError
from .plan import PipelinePlan, StagePlan, plan_taint
from .registers import RegisterArray, RegisterBanks, RegisterError, RegisterFile
from .results import BatchResults, PipelineResult
from .sharded import (
    classify_registers,
    register_methods,
    run_sharded,
    shard_assignments,
)
from .targetspec import load_target, save_target, target_from_dict, target_to_dict
from .resources import (
    ActionCost,
    TargetSpec,
    get_target,
    small_target,
    tofino,
    toy_three_stage,
)
from .tables import MatchActionTable, TableEntry, TableError
from .vector import PhvBatch, VectorPlan

__all__ = [
    "AluError",
    "apply_binary",
    "apply_unary",
    "MultiplyShiftHash",
    "ExecContext",
    "SimulationError",
    "Packet",
    "make_flow_packets",
    "Deparser",
    "FieldSpec",
    "PacketParser",
    "ParseState",
    "PacketParseError",
    "Phv",
    "PhvError",
    "PhvLayout",
    "ENGINES",
    "Pipeline",
    "PipelineResult",
    "BatchResults",
    "ValidationError",
    "PipelinePlan",
    "StagePlan",
    "plan_taint",
    "load_target",
    "save_target",
    "target_from_dict",
    "target_to_dict",
    "RegisterArray",
    "RegisterBanks",
    "RegisterError",
    "RegisterFile",
    "classify_registers",
    "register_methods",
    "run_sharded",
    "shard_assignments",
    "VectorPlan",
    "PhvBatch",
    "ActionCost",
    "TargetSpec",
    "get_target",
    "small_target",
    "tofino",
    "toy_three_stage",
    "MatchActionTable",
    "TableEntry",
    "TableError",
]
