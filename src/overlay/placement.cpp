#include "overlay/placement.h"

namespace propsim {

void Placement::bind(SlotId s, NodeId h) {
  PROPSIM_CHECK(s < host_of_.size());
  PROPSIM_CHECK(h < slot_of_.size());
  PROPSIM_CHECK(!slot_bound(s));
  PROPSIM_CHECK(!host_bound(h));
  host_of_[s] = h;
  slot_of_[h] = s;
  next_stamp();
  ++bound_count_;
}

void Placement::unbind(SlotId s) {
  PROPSIM_CHECK(s < host_of_.size());
  PROPSIM_CHECK(slot_bound(s));
  slot_of_[host_of_[s]] = kInvalidSlot;
  host_of_[s] = kInvalidNode;
  next_stamp();
  PROPSIM_CHECK(bound_count_ > 0);
  --bound_count_;
}

void Placement::swap_slots(SlotId a, SlotId b) {
  PROPSIM_CHECK(a != b);
  PROPSIM_CHECK(slot_bound(a) && slot_bound(b));
  const NodeId ha = host_of_[a];
  const NodeId hb = host_of_[b];
  host_of_[a] = hb;
  host_of_[b] = ha;
  slot_of_[ha] = b;
  slot_of_[hb] = a;
  next_stamp();
}

std::vector<NodeId> Placement::bound_hosts() const {
  std::vector<NodeId> hosts;
  hosts.reserve(bound_count_);
  for (const NodeId h : host_of_) {
    if (h != kInvalidNode) hosts.push_back(h);
  }
  return hosts;
}

}  // namespace propsim
