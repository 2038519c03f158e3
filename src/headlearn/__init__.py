"""Learning actuator control for an android robot head.

Core flow: simulate (or record) a head performing random expressions,
extract facial-expression features (action units, aligned 3D landmarks,
pairwise landmark distances), learn feature -> actuator-command regressors,
then drive the head from FACS emotion targets or live human tracker output.
"""

from .analysis import (
    CorrMatrix,
    compare_representations,
    low_correlation_features,
    pearson_matrix,
)
from .dataset import (
    CollectionProtocol,
    Dataset,
    HumanFrame,
    collect,
    ingest_openface_csv,
    load_dataset,
    parse_openface_lines,
    save_dataset,
    split,
)
from .default_head import build_default_head, load_default_head
from .errors import (
    AlignmentDegenerateError,
    CalibrationRequiredError,
    ConfigError,
    DatasetCorruptError,
    HeadLearnError,
    InvalidCommandError,
    OpenFaceFormatError,
    ProtocolError,
    ProvenanceWarning,
    SingularFitError,
    TrainingDivergedError,
    UnsupportedVersionError,
)
from .features import (
    AU_IDS,
    AUDef,
    MinMaxStats,
    extract_aus,
    fit_minmax,
    minmax_map,
    window_average,
)
from .geometry import (
    Pose,
    apply_pose,
    derotate,
    pairwise_distances,
    procrustes_align,
)
from .learn import (
    DEFAULT_PCA_CANDIDATES,
    HyperGrid,
    LinearModel,
    MlpModel,
    PcaModel,
    choose_pca_dim,
    default_grid,
    grid_search,
    mlp_fit,
    ols_fit,
    pca_fit,
    pca_transform,
    ridge_fit,
    rmse,
)
from .retarget import (
    EMOTIONS,
    PipelineModel,
    calibrate_human,
    evaluate_pipeline,
    express,
    facs_target,
    fit_pipeline,
    load_model,
    retarget_frame,
    save_model,
    stream,
)
from .simulator import (
    CHANNELS,
    ActuatorCommand,
    ActuatorDef,
    HeadConfig,
    HeadSimulator,
    ObservedFrame,
    forward,
    interpolate_commands,
    random_command,
)

__version__ = "0.1.0"
