"""Heart-rate estimation from FMCW radar with breathing-harmonic
cancellation ahead of spectral peak tracking."""

from .ahet import (AhetConfig, TrackerState, ahet_step, ahet_trace,
                   conventional_hr, conventional_trace, credibility,
                   eca_conventional_trace, shared_cancellation)
from .anls import (HarmonicModel, estimate_breathing, fit_amplitudes,
                   harmonic_matrix, reconstruct_reference)
from .bench import interval_rmse, monte_carlo, rmse, time_profile
from .eca import EcaResult, eca_cancel, lag_matrix
from .ingest import (read_raw_cube, read_reference_trace, write_raw_cube,
                     write_trace, write_truth)
from .preprocess import (RangeProfiles, cube_phase, detect_target_bin,
                         enhance_phase, extract_phase, range_profiles,
                         slow_time_phase)
from .scenario import (IntermodTone, RadarConfig, RadarCube, Scenario,
                       displacement_to_phase, load_scenario, reference_trace,
                       synthesize_displacement, synthesize_radar_cube,
                       synthesize_slow_time)
from .spectral import Peak, Spectrum, power_spectrum, top_peaks
from .types import HrTrace, PhaseSignal, TraceEntry

__version__ = "0.1.0"
