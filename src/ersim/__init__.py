"""Monte Carlo simulation and analysis of pulsed single-photon experiments on
a cavity-coupled erbium emitter: time-tagged click streams, lifetime and
lineshape fits, pulsed autocorrelation, and spectral-diffusion maps."""

from .analysis import (
    background_corrected_g2,
    histogram_arrivals,
    pulsed_g2,
    purcell_report,
    spectral_diffusion_map,
    spectrum_from_scan,
)
from .config import config_digest, parse_config, parse_config_file, serialize_config
from .engine import (
    ClickStream,
    ExperimentConfig,
    PulseSequence,
    ScanResult,
    run_lifetime,
    run_scan_session,
    validate_click_stream,
)
from .errors import (
    ConfigError,
    ErsimError,
    InvalidParameterError,
    StreamFormatError,
    StreamInvariantError,
)
from .fitting import FitResult, fit_exponential, fit_gaussian, fit_lorentzian
from .physics import (
    CavityModel,
    DetectorModel,
    EmitterModel,
    SpectralDiffusionParams,
    purcell_from_lifetimes,
    radiative_linewidth,
)
from .records import CorrelationHistogram, DecayHistogram, Spectrum
from .streamfile import read_clickstream, write_clickstream

__version__ = "0.1.0"
