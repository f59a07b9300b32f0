#include "dmt/linear/glm_classifier.h"

#include <istream>
#include <ostream>

#include "dmt/serial/model_io.h"

namespace dmt::linear {

void GlmClassifier::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagGlmClassifier);
  SaveGlmConfig(writer, model_.config());
  model_.SaveState(writer);
}

std::unique_ptr<GlmClassifier> GlmClassifier::LoadBody(
    serial::Reader& reader) {
  const GlmConfig config = LoadGlmConfig(reader);
  auto model = std::make_unique<GlmClassifier>(config);
  model->model_.LoadState(reader);
  return model;
}

}  // namespace dmt::linear
