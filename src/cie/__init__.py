"""Causal intelligence engine for modeled microservice environments.

Maintains three linked structures (topology graph, codebook, causality
graph) and answers health, impact, root-cause, and remediation queries
through a line-oriented tool service (``cie.service``). The environment's
attribute dependency section is checked at load but not kept;
``cie.attributes`` is its library form. Health and "no root cause" have
one meaning, the service's: an environment with no active symptom is
healthy, and active symptoms that no modelled cause explains are degraded
with no root cause.
"""

from .attributes import AttributeGraph, load_attribute_graph
from .causality import CausalityGraph, instantiate, refresh
from .engine import Engine, EngineSnapshot
from .errors import (CycleError, DocumentError, DuplicateIdError, EngineError,
                     UnknownIdError)
from .inference import (ActiveSymptomSet, Diagnosis, Observation, activate_symptoms,
                        localize, log_score)
from .knowledge_base import Codebook, load_codebook, render_codebook
from .topology import Entity, EntityGraph, Relation, load_environment

__version__ = "0.1.0"

__all__ = [
    "ActiveSymptomSet", "AttributeGraph", "CausalityGraph", "Codebook",
    "CycleError", "Diagnosis", "DocumentError", "DuplicateIdError", "Engine",
    "EngineError", "EngineSnapshot", "Entity", "EntityGraph", "Observation",
    "Relation", "UnknownIdError", "activate_symptoms", "instantiate",
    "load_attribute_graph", "load_codebook", "load_environment", "localize",
    "log_score", "refresh", "render_codebook",
]
