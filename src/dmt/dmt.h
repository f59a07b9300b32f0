// Umbrella header: the Dynamic Model Tree library public API.
//
// The paper's contribution lives in dmt/core/; every baseline and substrate
// it is evaluated against (Hoeffding-tree family, FIMT-DD, ensembles, drift
// detectors, stream generators, prequential evaluation) is included here as
// well so that examples and downstream users need a single include.
#ifndef DMT_DMT_H_
#define DMT_DMT_H_

#include "dmt/common/classifier.h"
#include "dmt/common/random.h"
#include "dmt/common/stats.h"
#include "dmt/common/table.h"
#include "dmt/common/types.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/drift/adwin.h"
#include "dmt/drift/page_hinkley.h"
#include "dmt/ensemble/adaptive_random_forest.h"
#include "dmt/ensemble/leveraging_bagging.h"
#include "dmt/ensemble/online_bagging.h"
#include "dmt/ensemble/online_boosting.h"
#include "dmt/eval/metrics.h"
#include "dmt/eval/prequential.h"
#include "dmt/eval/regression_prequential.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/glm_classifier.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/streams/agrawal.h"
#include "dmt/streams/classic_generators.h"
#include "dmt/streams/concept_stream.h"
#include "dmt/streams/csv_stream.h"
#include "dmt/streams/datasets.h"
#include "dmt/streams/hyperplane.h"
#include "dmt/streams/regression_streams.h"
#include "dmt/streams/scaler.h"
#include "dmt/streams/sea.h"
#include "dmt/streams/stream.h"
#include "dmt/trees/efdt.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/hoeffding_adaptive.h"
#include "dmt/trees/sgt.h"
#include "dmt/trees/vfdt.h"

#endif  // DMT_DMT_H_
