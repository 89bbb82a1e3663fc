"""Content-based spam filtering for Vietnamese SMS.

The pipeline: entity tagging (dates, phones, links, currency, emoticons,
numbers become reserved tokens), collocation-based word segmentation,
sparse bag-of-words or tf-idf features with document-frequency selection
and a message-length feature, then one of five classifiers or an untrained
bracket-tag rule, all measured by a stratified k-fold harness.
"""

from .classifiers import (
    Hyperparams,
    Prediction,
    TrainedModel,
    decision_score,
    predict,
    rule_baseline,
    train,
)
from .corpus import (
    Corpus,
    CorpusError,
    FoldAssignment,
    Label,
    Message,
    load_corpus,
    save_corpus,
    stratified_kfold,
)
from .evaluation import (
    ConfusionCounts,
    EvalReport,
    FoldOutcome,
    Rates,
    confusion,
    cross_validate,
    evaluate_baseline,
    format_table,
    rates,
    reference_grid,
    run_grid,
    write_csv,
)
from .features import (
    FeatureVector,
    Vocabulary,
    append_length,
    build_vocabulary,
    vectorize_bow,
    vectorize_tfidf,
)
from .pipeline import FittedPipeline, ModelFileError, PipelineConfig
from .preprocess import (
    CollocationModel,
    EntityRuleSet,
    collocation_score,
    fit_collocations,
    segment,
    tag_entities,
)

__version__ = "0.1.0"
