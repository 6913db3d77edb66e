#include "core/participant_tracker.hpp"

namespace idonly {

void ParticipantTracker::note(std::span<const Message> inbox) {
  // One insert per run of equal senders: the inbox is grouped by sender, so
  // this is one probe per sender instead of one per message.
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    if (i == 0 || inbox[i].sender != inbox[i - 1].sender) seen_.insert(inbox[i].sender);
  }
}

}  // namespace idonly
