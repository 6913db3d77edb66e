#include "runtime/transport.hpp"

namespace idonly {

Transport::~Transport() = default;

}  // namespace idonly
