#include "testing/clone_reference.h"

namespace microprov {
namespace testing_util {

std::unique_ptr<Bundle> CloneBundle(const Bundle& src,
                                    IndicantDictionary* dict) {
  auto clone = std::make_unique<Bundle>(src.id(), dict);
  for (const BundleMessage& bm : src.messages()) {
    clone->AddMessage(bm.msg, bm.parent, bm.conn_type, bm.conn_score);
  }
  if (src.closed()) clone->Close();
  return clone;
}

}  // namespace testing_util
}  // namespace microprov
