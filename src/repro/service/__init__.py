"""Deployment components of the LogLens architecture (paper, Figure 1).

Transport (:mod:`~repro.service.bus`), storage
(:mod:`~repro.service.storage`), ingestion
(:mod:`~repro.service.agent`, :mod:`~repro.service.log_manager`), the
model management plane (:mod:`~repro.service.model_builder`,
:mod:`~repro.service.model_manager`, :mod:`~repro.service.model_controller`),
the heartbeat controller (:mod:`~repro.service.heartbeat`), and the fully
wired :class:`~repro.service.loglens_service.LogLensService`.
"""

from .agent import FileTailAgent, ReplayAgent
from .bus import Consumer, Message, MessageBus, dead_letter_topic
from .config import AlertsConfig, ServiceConfig
from .sections import ReportSection
from .dashboard import AdHocQuery, Dashboard
from .fleet import FleetService
from .heartbeat import HeartbeatController, SourceClock
from .scheduler import RelearnAutomation, ScheduledTask, SimulatedScheduler
from .log_manager import LogManager
from .loglens_service import (
    LogLensService,
    QuarantineReport,
    ServiceReport,
    StepReport,
)
from .model_builder import BuiltModels, ModelBuilder
from .model_controller import ModelBinding, ModelController
from .replay import ReplayOutcome, replay
from .model_manager import ModelManager, PATTERN_MODEL, SEQUENCE_MODEL
from .storage import AnomalyStorage, LogStorage, ModelStorage

__all__ = [
    "FileTailAgent",
    "ReplayAgent",
    "Consumer",
    "Message",
    "MessageBus",
    "AdHocQuery",
    "Dashboard",
    "FleetService",
    "RelearnAutomation",
    "ScheduledTask",
    "SimulatedScheduler",
    "HeartbeatController",
    "SourceClock",
    "LogManager",
    "AlertsConfig",
    "LogLensService",
    "QuarantineReport",
    "ReportSection",
    "ServiceConfig",
    "ServiceReport",
    "StepReport",
    "dead_letter_topic",
    "BuiltModels",
    "ModelBuilder",
    "ModelBinding",
    "ModelController",
    "ReplayOutcome",
    "replay",
    "ModelManager",
    "PATTERN_MODEL",
    "SEQUENCE_MODEL",
    "AnomalyStorage",
    "LogStorage",
    "ModelStorage",
]
