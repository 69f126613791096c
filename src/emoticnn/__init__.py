"""Emotion classification for microblog posts.

Emoticons carry much of the feeling in a short post; this package
normalizes them into emotional word phrases, encodes the result as
padded integer sequences, and classifies them into four categories
(Sad, Happy, Love, Angry) with a small 1D convolutional network built
from scratch on numpy.
"""

from .corpus import (
    CATEGORY_CODES,
    CATEGORY_NAMES,
    MODE_EMOTICON_TEXT,
    MODE_TEXT_ONLY,
    CorpusError,
    EmoticonLexicon,
    Tweet,
    clean,
    generate_synthetic,
    load_dataset,
    preprocess,
    replace_emoticons,
    save_dataset,
    strip_emoticons,
)
from .encode import OOV_INDEX, PAD_INDEX, Vocabulary, encode, fit_vocabulary, pad
from .nn import (
    LAYERS,
    ForwardCache,
    Model,
    ModelConfig,
    RmsPropState,
    cross_entropy,
    gradient_check,
    init_model,
    model_backward,
    rmsprop_step,
    softmax,
)
from .persist import PersistError, load_model, save_model
from .train import (
    ConfusionMatrix,
    EpochRecord,
    History,
    TrainConfig,
    TrainingDiverged,
    confusion_matrix,
    encode_dataset,
    evaluate,
    one_hot,
    predict_codes,
    split_dataset,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "CATEGORY_CODES",
    "CATEGORY_NAMES",
    "LAYERS",
    "MODE_EMOTICON_TEXT",
    "MODE_TEXT_ONLY",
    "ConfusionMatrix",
    "CorpusError",
    "EmoticonLexicon",
    "EpochRecord",
    "ForwardCache",
    "History",
    "Model",
    "ModelConfig",
    "OOV_INDEX",
    "PAD_INDEX",
    "PersistError",
    "RmsPropState",
    "TrainConfig",
    "TrainingDiverged",
    "Tweet",
    "Vocabulary",
    "clean",
    "confusion_matrix",
    "cross_entropy",
    "encode",
    "encode_dataset",
    "evaluate",
    "fit_vocabulary",
    "generate_synthetic",
    "gradient_check",
    "init_model",
    "load_dataset",
    "load_model",
    "model_backward",
    "one_hot",
    "pad",
    "predict_codes",
    "preprocess",
    "replace_emoticons",
    "rmsprop_step",
    "save_dataset",
    "save_model",
    "softmax",
    "split_dataset",
    "strip_emoticons",
    "train_model",
    "__version__",
]
