"""Task-level AI exposure analysis for job-advert corpora.

Extracts tasks from vacancy text through a pluggable LLM provider, scores
and bands their exposure, decay-weights time allocation, clusters roles
and tasks, rakes sample weights to population marginals, sweeps automation
thresholds for cost and productivity estimates, and redesigns roles whose
high-exposure tasks are automated away.
"""

__version__ = "0.1.0"

from .gateway.cache import use_one_blas_thread

# every caller computes on one BLAS thread, so a result's bits do not depend on the core count
use_one_blas_thread()

from .config import PipelineConfig
from .pipeline import Pipeline

__all__ = ["PipelineConfig", "Pipeline", "__version__"]
