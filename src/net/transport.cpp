#include "net/transport.h"

#include <utility>

#include "util/check.h"

namespace delta::net {

std::size_t add_endpoint(std::deque<Endpoint>& endpoints,
                         const std::string& name, MessageHandler handler) {
  DELTA_CHECK(handler != nullptr);
  for (const Endpoint& e : endpoints) {
    DELTA_CHECK_MSG(e.name != name,
                    "endpoint '" << name << "' registered twice");
  }
  endpoints.push_back(Endpoint{name, std::move(handler), TrafficMeter{}});
  return endpoints.size() - 1;
}

std::size_t LoopbackTransport::register_endpoint(const std::string& name,
                                                 MessageHandler handler) {
  return add_endpoint(endpoints_, name, std::move(handler));
}

void LoopbackTransport::send_to(std::size_t destination_slot,
                                Message& message, Mechanism mechanism) {
  const std::size_t count = endpoints_.size();
  DELTA_CHECK_MSG(destination_slot < count,
                  "unknown endpoint slot " << destination_slot);
  DELTA_CHECK_MSG(static_cast<std::size_t>(message.sender) < count,
                  "unregistered sender slot " << message.sender);
  Endpoint& endpoint = endpoints_[destination_slot];
  meter_.record(mechanism, message.payload);
  meter_.record(Mechanism::kOverhead, kMessageHeaderBytes + message.batch_bytes);
  endpoint.meter.record(mechanism, message.payload);
  endpoint.meter.record(Mechanism::kOverhead,
                        kMessageHeaderBytes + message.batch_bytes);
  ++delivered_;
  endpoint.handler(message);
}

const TrafficMeter& LoopbackTransport::endpoint_meter(
    std::size_t slot) const {
  DELTA_CHECK_MSG(slot < endpoints_.size(),
                  "no meter: unknown endpoint slot " << slot);
  return endpoints_[slot].meter;
}

}  // namespace delta::net
