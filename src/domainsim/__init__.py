"""domainsim: corpus similarity metrics and source-domain ranking for
cross-domain sentiment transfer."""

from .cdsa_baseline import (
    ChartRow,
    chart,
    load_accuracy_matrix,
    reference_accuracy_matrix,
    train_eval_baseline,
)
from .corpus import (
    Corpus,
    NgramIndex,
    Review,
    load_corpus,
    ngram_overlap_matrix,
    normalize,
    top_k_ngrams,
)
from .embedding_metrics import (
    AdjectiveLexicon,
    SentenceVectorSet,
    WordVectorTable,
    angular_similarity,
    load_adjectives,
    load_sentence_vectors,
    load_word_vectors,
    select_test_vectors,
    word_metric,
)
from .errors import InputError, UnrankablePairError
from .evaluation import (
    EvalReport,
    aggregate,
    precision_at_k,
    rank_sources,
    ranking_accuracy,
    recommendation_report,
)
from .labelled_metrics import (
    jaccard,
    lm1_overlap,
    lm2_skld,
    lm3_chameleon,
    lm4_entropy_change,
)
from .lexstats import (
    chi_square,
    filter_reviews,
    load_sentiment_lexicon_tsv,
    load_sentiwordnet,
    polar_words,
    polarity_table,
    review_score,
    significant_words,
)
from .pairs import PairMatrix

__version__ = "0.1.0"
