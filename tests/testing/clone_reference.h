#ifndef MICROPROV_TESTS_TESTING_CLONE_REFERENCE_H_
#define MICROPROV_TESTS_TESTING_CLONE_REFERENCE_H_

#include <memory>
#include <string>

#include "core/bundle.h"
#include "core/engine_state.h"
#include "core/indicant_dictionary.h"
#include "storage/bundle_codec.h"

namespace microprov {
namespace testing_util {

/// Deep-copies `src` into a new bundle interning against `dict` (nullptr
/// for a private dictionary) by replaying AddMessage, which rebuilds
/// summaries, time ranges, latest-by-user and memory accounting; the
/// closed flag is carried over. The reference the checkpoint capture
/// tests encode against the live pool.
std::unique_ptr<Bundle> CloneBundle(const Bundle& src,
                                    IndicantDictionary* dict);

/// Appends `bundle`'s record to a hand-built EngineState or EngineDelta,
/// in a buffer the state then owns.
template <typename State>
void AppendRecord(const Bundle& bundle, State* state) {
  auto buffer = std::make_shared<std::string>();
  EncodeBundle(bundle, buffer.get());
  state->bundles.push_back(BundleRecord{bundle.id(), *buffer});
  state->buffers.push_back(std::move(buffer));
}

}  // namespace testing_util
}  // namespace microprov

#endif  // MICROPROV_TESTS_TESTING_CLONE_REFERENCE_H_
