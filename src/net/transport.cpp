#include "net/transport.h"

#include <utility>

#include "util/check.h"

namespace delta::net {

void Transport::bind(End end, std::string name, MessageHandler handler) {
  DELTA_CHECK(handler != nullptr);
  Endpoint& self = ends_[end_index(end)];
  const Endpoint& other = ends_[end_index(other_end(end))];
  DELTA_CHECK_MSG(self.handler == nullptr,
                  "the " << to_string(end) << " end is already bound to '"
                         << self.name << "'");
  DELTA_CHECK_MSG(other.handler == nullptr || other.name != name,
                  "both ends cannot be named '" << name << "'");
  self.name = std::move(name);
  self.handler = std::move(handler);
  wired_ = other.handler != nullptr;
}

void LoopbackTransport::send(End to, Message& message, Mechanism mechanism) {
  check_wired(to);
  Endpoint& endpoint = ends_[end_index(to)];
  endpoint.meter.record(mechanism, message.payload);
  endpoint.meter.record(Mechanism::kOverhead,
                        kMessageHeaderBytes + message.batch_bytes());
  endpoint.handler(message);
}

}  // namespace delta::net
