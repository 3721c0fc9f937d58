#include "fleetsim/event_core.h"

#include <cstring>
#include <sstream>

namespace hplmxp::fleetsim {

const char* toString(EventClass cls) {
  switch (cls) {
    case EventClass::kLuIteration: return "lu-iteration";
    case EventClass::kLuPanelArrival: return "lu-panel-arrival";
    case EventClass::kLuDone: return "lu-done";
    case EventClass::kRequestArrival: return "request-arrival";
    case EventClass::kBatchWindow: return "batch-window";
    case EventClass::kSolveDone: return "solve-done";
    case EventClass::kCrash: return "crash";
    case EventClass::kResurrect: return "resurrect";
    case EventClass::kSlowdown: return "slowdown";
    case EventClass::kHeartbeat: return "heartbeat";
    case EventClass::kHedgeFire: return "hedge-fire";
  }
  return "?";
}

EventClass eventClassFromString(const std::string& name) {
  for (const EventClass cls :
       {EventClass::kLuIteration, EventClass::kLuPanelArrival,
        EventClass::kLuDone, EventClass::kRequestArrival,
        EventClass::kBatchWindow, EventClass::kSolveDone, EventClass::kCrash,
        EventClass::kResurrect, EventClass::kSlowdown,
        EventClass::kHeartbeat, EventClass::kHedgeFire}) {
    if (name == toString(cls)) {
      return cls;
    }
  }
  HPLMXP_REQUIRE(false, ("unknown event class: " + name).c_str());
  return EventClass::kLuIteration;  // unreachable
}

bool Breakpoint::matches(const Event& event) const {
  switch (kind) {
    case Kind::kEventClass: return event.cls == cls;
    case Kind::kNode: return event.node == node;
    case Kind::kTime: return event.time >= time;
  }
  return false;
}

std::string Breakpoint::toString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kEventClass:
      os << "class " << fleetsim::toString(cls);
      break;
    case Kind::kNode:
      os << "node " << node;
      break;
    case Kind::kTime:
      os << "time " << time * 1e3 << "ms";
      break;
  }
  return os.str();
}

Simulator::Simulator() = default;

index_t Simulator::addWorkload(Workload* workload) {
  HPLMXP_REQUIRE(workload != nullptr, "null workload");
  workloads_.push_back(workload);
  return static_cast<index_t>(workloads_.size()) - 1;
}

index_t Simulator::workloadIndex(const Workload* workload) const {
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    if (workloads_[i] == workload) {
      return static_cast<index_t>(i);
    }
  }
  HPLMXP_REQUIRE(false, "workload not registered with this simulator");
  return -1;  // unreachable
}

void Simulator::startWorkloads() {
  HPLMXP_REQUIRE(!started_, "workloads already started");
  started_ = true;
  for (Workload* w : workloads_) {
    w->start(*this);
  }
}

void Simulator::schedule(double time, index_t node, EventClass cls,
                         index_t workload, std::int64_t a, std::int64_t b,
                         double x) {
  HPLMXP_REQUIRE(time >= now(), "cannot schedule an event in the past");
  HPLMXP_REQUIRE(workload >= 0 &&
                     workload < static_cast<index_t>(workloads_.size()),
                 "event names an unregistered workload");
  Event event;
  event.time = time;
  event.node = node;
  event.seq = nextSeq_++;
  event.cls = cls;
  event.workload = workload;
  event.a = a;
  event.b = b;
  event.x = x;
  heapPush(event);
}

// (time, node, seq) strict weak ordering — seq is unique, so the order is
// total and identical on every host.
bool Simulator::heapLess(std::size_t i, std::size_t j) const {
  const Event& a = heap_[i];
  const Event& b = heap_[j];
  if (a.time != b.time) return a.time < b.time;
  if (a.node != b.node) return a.node < b.node;
  return a.seq < b.seq;
}

void Simulator::heapPush(const Event& event) {
  heap_.push_back(event);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heapLess(i, parent)) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Event Simulator::heapPop() {
  const Event top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t best = i;
    if (l < n && heapLess(l, best)) best = l;
    if (r < n && heapLess(r, best)) best = r;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

namespace {
/// One FNV-1a step per byte of `value`, low byte first.
std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::uint64_t doubleBits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}
}  // namespace

void Simulator::execute(const Event& event) {
  clock_.advanceTo(event.time);
  ++executed_;
  traceHash_ = fnvMix(traceHash_, doubleBits(event.time));
  traceHash_ = fnvMix(traceHash_, static_cast<std::uint64_t>(event.node));
  traceHash_ = fnvMix(traceHash_, event.seq);
  traceHash_ = fnvMix(traceHash_, static_cast<std::uint64_t>(event.cls));
  traceHash_ = fnvMix(traceHash_, static_cast<std::uint64_t>(event.workload));
  traceHash_ = fnvMix(traceHash_, static_cast<std::uint64_t>(event.a));
  traceHash_ = fnvMix(traceHash_, static_cast<std::uint64_t>(event.b));
  traceHash_ = fnvMix(traceHash_, doubleBits(event.x));
  if (traceLimit_ > 0) {
    trace_.push_back(event);
    while (trace_.size() > traceLimit_) {
      trace_.pop_front();
    }
  }
  workloads_[static_cast<std::size_t>(event.workload)]->handle(*this, event);
}

const Breakpoint* Simulator::matchBreakpoint(const Event& event) const {
  for (const Breakpoint& bp : breakpoints_) {
    if (bp.matches(event)) {
      return &bp;
    }
  }
  return nullptr;
}

const Event* Simulator::peek() const {
  return heap_.empty() ? nullptr : &heap_.front();
}

const Event* Simulator::breakEvent() const {
  return breakValid_ ? &breakEvent_ : nullptr;
}

bool Simulator::step() {
  breakValid_ = false;
  if (heap_.empty()) {
    return false;
  }
  execute(heapPop());
  return true;
}

StopReason Simulator::run(index_t maxEvents) {
  breakValid_ = false;
  index_t executed = 0;
  while (!heap_.empty()) {
    if (maxEvents >= 0 && executed >= maxEvents) {
      return StopReason::kEventLimit;
    }
    const Event& top = heap_.front();
    if (top.seq != breakSeq_) {
      if (matchBreakpoint(top) != nullptr) {
        breakEvent_ = top;
        breakValid_ = true;
        breakSeq_ = top.seq;  // resume executes it without re-breaking
        return StopReason::kBreakpoint;
      }
    }
    execute(heapPop());
    ++executed;
  }
  return StopReason::kExhausted;
}

StopReason Simulator::runUntil(double time) {
  breakValid_ = false;
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (top.time > time) {
      return StopReason::kTimeLimit;
    }
    if (top.seq != breakSeq_) {
      if (matchBreakpoint(top) != nullptr) {
        breakEvent_ = top;
        breakValid_ = true;
        breakSeq_ = top.seq;
        return StopReason::kBreakpoint;
      }
    }
    execute(heapPop());
  }
  return StopReason::kExhausted;
}

void Simulator::setTraceLimit(std::size_t limit) {
  traceLimit_ = limit;
  while (trace_.size() > traceLimit_) {
    trace_.pop_front();
  }
}

index_t Simulator::addBreakpoint(Breakpoint bp) {
  breakpoints_.push_back(bp);
  return static_cast<index_t>(breakpoints_.size()) - 1;
}

}  // namespace hplmxp::fleetsim
