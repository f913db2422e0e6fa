"""Classical ML algorithms implemented from scratch on numpy.

Substitution S4 in DESIGN.md: the paper uses scikit-learn 1.5 plus the
XGBoost/LightGBM/CatBoost packages for the Histogram Similarity
Classifiers; none are available offline, so this package reimplements them:

* :mod:`repro.ml.tree` — CART decision trees (gini),
* :mod:`repro.ml.forest` — Random Forest (bagging + feature subsampling,
  optional process-parallel training with bit-identical derived seeds),
* :mod:`repro.ml.flat` — the flat-array inference engine: fitted
  ensembles compile to stacked node arrays and predict via
  level-synchronous vectorized descent (O(depth) numpy ops per batch),
* :mod:`repro.ml.gbdt` — three gradient-boosting variants mirroring the
  distinguishing design choice of each library: exact level-wise growth
  with second-order gain (XGBoost), histogram binning with leaf-wise
  growth (LightGBM), and oblivious/symmetric trees (CatBoost),
* :mod:`repro.ml.knn`, :mod:`repro.ml.linear`, :mod:`repro.ml.svm` —
  k-nearest neighbours, logistic regression (L-BFGS), and an SVM with an
  RBF random-Fourier-feature map,
* :mod:`repro.ml.metrics` — the Accuracy/F1/Precision/Recall used
  throughout the paper's evaluation,
* :mod:`repro.ml.curves` — threshold-free ROC / precision–recall curves
  and operating-point selection for the deployment scenario of §V.
"""

from repro.ml.base import Classifier, clone
from repro.ml.flat import FlatEnsemble, precompile
from repro.ml.curves import (
    average_precision_score,
    precision_recall_curve,
    roc_auc_score,
    roc_curve,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import (
    CatBoostClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
)
from repro.ml.knn import KNeighborsClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import (
    accuracy_score,
    classification_metrics,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
)
from repro.ml.svm import SVC
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "Classifier",
    "clone",
    "FlatEnsemble",
    "precompile",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "XGBoostClassifier",
    "LightGBMClassifier",
    "CatBoostClassifier",
    "KNeighborsClassifier",
    "LogisticRegression",
    "SVC",
    "accuracy_score",
    "average_precision_score",
    "precision_recall_curve",
    "roc_auc_score",
    "roc_curve",
    "classification_metrics",
    "confusion_matrix",
    "f1_score",
    "precision_score",
    "recall_score",
]
