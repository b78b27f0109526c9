#include "src/machine/machine.hpp"

#include <sstream>
#include <utility>

#include "src/support/format.hpp"

namespace automap {

namespace {
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr std::uint64_t gib(double n) {
  return static_cast<std::uint64_t>(n * kGiB);
}
constexpr double gbps(double n) { return n * 1e9; }
}  // namespace

MachineModel::MachineModel(std::string name, int num_nodes)
    : name_(std::move(name)), num_nodes_(num_nodes) {
  AM_REQUIRE(num_nodes_ > 0, "a machine needs at least one node");
}

void MachineModel::add_proc_group(const ProcGroup& group) {
  AM_REQUIRE(group.count_per_node > 0, "processor group needs instances");
  AM_REQUIRE(group.speed > 0.0, "processor speed must be positive");
  AM_REQUIRE(group.launch_overhead_s >= 0.0, "negative launch overhead");
  AM_REQUIRE(!has_proc_kind(group.kind), "duplicate processor kind");
  proc_groups_.push_back(group);
  has_proc_[index_of(group.kind)] = true;
}

void MachineModel::add_mem_group(const MemGroup& group) {
  AM_REQUIRE(group.count_per_node > 0, "memory group needs instances");
  AM_REQUIRE(group.capacity_bytes > 0, "memory capacity must be positive");
  AM_REQUIRE(!has_mem_kind(group.kind), "duplicate memory kind");
  mem_groups_.push_back(group);
  mems_per_node_[index_of(group.kind)] = group.count_per_node;
  mem_capacity_[index_of(group.kind)] = group.capacity_bytes;
}

void MachineModel::set_affinity(ProcKind p, MemKind m, Affinity a) {
  AM_REQUIRE(a.bandwidth_bytes_per_s > 0.0, "affinity bandwidth must be > 0");
  AM_REQUIRE(a.latency_s >= 0.0, "negative affinity latency");
  affinities_[index_of(p)][index_of(m)] = a;
}

void MachineModel::set_channel(MemKind src, MemKind dst, bool inter_node,
                               Channel c) {
  AM_REQUIRE(c.bandwidth_bytes_per_s > 0.0, "channel bandwidth must be > 0");
  AM_REQUIRE(c.latency_s >= 0.0, "negative channel latency");
  channels_[index_of(src)][index_of(dst)][inter_node ? 1 : 0] = c;
  channels_[index_of(dst)][index_of(src)][inter_node ? 1 : 0] = c;
}

void MachineModel::set_cross_socket_channel(Channel c) {
  AM_REQUIRE(c.bandwidth_bytes_per_s > 0.0, "channel bandwidth must be > 0");
  cross_socket_ = c;
}

void MachineModel::set_runtime_overhead(double seconds) {
  AM_REQUIRE(seconds >= 0.0, "negative runtime overhead");
  runtime_overhead_ = seconds;
}

void MachineModel::set_restart_overhead(double seconds) {
  AM_REQUIRE(seconds >= 0.0, "negative restart overhead");
  restart_overhead_ = seconds;
}

void MachineModel::validate() const {
  // Machines come from files and wire requests: a defect is a plain
  // Error naming what is missing.
  const auto invalid = [](const std::string& what) {
    return Error("invalid machine: " + what);
  };
  if (proc_groups_.empty()) throw invalid("no 'proc' processor group");
  if (mem_groups_.empty()) throw invalid("no 'mem' memory group");
  for (const auto& pg : proc_groups_) {
    bool any = false;
    for (const auto& mg : mem_groups_)
      if (addressable(pg.kind, mg.kind)) any = true;
    if (!any)
      throw invalid(std::string(to_string(pg.kind)) +
                    " has no 'affinity' to a declared memory kind");
  }
  // Every pair of declared memory kinds must have both intra- and inter-node
  // channels so any producer/consumer placement is executable.
  for (const auto& a : mem_groups_) {
    for (const auto& b : mem_groups_) {
      for (const bool inter : {false, true}) {
        if (num_nodes_ == 1 && inter) continue;
        if (!channels_[index_of(a.kind)][index_of(b.kind)][inter ? 1 : 0])
          throw invalid("no " + std::string(inter ? "inter" : "intra") +
                        " 'channel' between " +
                        std::string(to_string(a.kind)) + " and " +
                        std::string(to_string(b.kind)));
      }
    }
  }
  if (mems_per_node(MemKind::kSystem) > 1 && !cross_socket_)
    throw invalid("multi-socket System memory needs a 'cross_socket' channel");
}

std::vector<ProcKind> MachineModel::proc_kinds() const {
  std::vector<ProcKind> out;
  out.reserve(proc_groups_.size());
  for (const auto& g : proc_groups_) out.push_back(g.kind);
  return out;
}

std::vector<MemKind> MachineModel::mem_kinds() const {
  std::vector<MemKind> out;
  out.reserve(mem_groups_.size());
  for (const auto& g : mem_groups_) out.push_back(g.kind);
  return out;
}

std::vector<MemKind> MachineModel::memories_addressable_by(ProcKind p) const {
  std::vector<MemKind> out;
  for (const auto& g : mem_groups_)
    if (addressable(p, g.kind)) out.push_back(g.kind);
  return out;
}

MemKind MachineModel::best_memory_for(ProcKind p) const {
  std::optional<MemKind> best;
  double best_bw = -1.0;
  for (const auto& g : mem_groups_) {
    if (!addressable(p, g.kind)) continue;
    const double bw = affinity(p, g.kind).bandwidth_bytes_per_s;
    if (bw > best_bw) {
      best_bw = bw;
      best = g.kind;
    }
  }
  AM_REQUIRE(best.has_value(), "processor kind addresses no memory");
  return *best;
}

Affinity MachineModel::affinity(ProcKind p, MemKind m) const {
  const auto& a = affinities_[index_of(p)][index_of(m)];
  AM_REQUIRE(a.has_value(), std::string("no affinity ") +
                                std::string(to_string(p)) + " -> " +
                                std::string(to_string(m)));
  return *a;
}

bool MachineModel::has_channel(MemKind src, MemKind dst,
                               bool inter_node) const {
  return channels_[index_of(src)][index_of(dst)][inter_node ? 1 : 0]
      .has_value();
}

Channel MachineModel::channel(MemKind src, MemKind dst,
                              bool inter_node) const {
  const auto& c = channels_[index_of(src)][index_of(dst)][inter_node ? 1 : 0];
  AM_REQUIRE(c.has_value(), std::string("no channel ") +
                                std::string(to_string(src)) + " -> " +
                                std::string(to_string(dst)));
  return *c;
}

Channel MachineModel::cross_socket_channel() const {
  AM_REQUIRE(cross_socket_.has_value(), "no cross-socket channel configured");
  return *cross_socket_;
}

const ProcGroup& MachineModel::proc_group(ProcKind k) const {
  for (const auto& g : proc_groups_)
    if (g.kind == k) return g;
  AM_REQUIRE(false,
             "machine has no processors of kind " + std::string(to_string(k)));
  AM_UNREACHABLE("");
}

const MemGroup& MachineModel::mem_group(MemKind k) const {
  for (const auto& g : mem_groups_)
    if (g.kind == k) return g;
  AM_REQUIRE(false,
             "machine has no memory of kind " + std::string(to_string(k)));
  AM_UNREACHABLE("");
}

int MachineModel::procs_per_node(ProcKind k) const {
  return proc_group(k).count_per_node;
}

std::string MachineModel::describe() const {
  std::ostringstream os;
  os << "machine " << name_ << ": " << num_nodes_ << " node(s), runtime "
     << "overhead " << format_seconds(runtime_overhead_) << "/launch, "
     << format_seconds(restart_overhead_) << "/restart\n";
  for (const auto& g : proc_groups_) {
    os << "  " << to_string(g.kind) << " x" << g.count_per_node
       << "/node, speed " << g.speed << ", launch overhead "
       << format_seconds(g.launch_overhead_s) << ", "
       << format_fixed(g.watts_busy, 0) << " W busy\n";
  }
  for (const auto& g : mem_groups_) {
    os << "  " << to_string(g.kind) << " x" << g.count_per_node << "/node, "
       << format_bytes(g.capacity_bytes) << " each\n";
  }
  return os.str();
}

MachineModel make_shepard(int num_nodes) {
  MachineModel m("shepard", num_nodes);
  // 2 sockets x 28 cores = 56, minus 8 reserved for the runtime.
  m.add_proc_group({.kind = ProcKind::kCpu,
                    .count_per_node = 48,
                    .speed = 1.0,
                    .launch_overhead_s = 10e-6,
                    .watts_busy = 6.0});
  // One P100 per node. A single GPU point-executes group tasks serially, but
  // each point runs much faster than a CPU core; kernel launch plus Legion
  // task management costs ~25us per point.
  m.add_proc_group({.kind = ProcKind::kGpu,
                    .count_per_node = 1,
                    .speed = 1.0,
                    .launch_overhead_s = 25e-6,
                    .watts_busy = 250.0});
  // 196 GB RAM: 60 GB reserved for Zero-Copy, the rest split across the two
  // per-socket System allocations.
  m.add_mem_group({.kind = MemKind::kSystem,
                   .count_per_node = 2,
                   .capacity_bytes = gib(64)});
  m.add_mem_group({.kind = MemKind::kZeroCopy,
                   .count_per_node = 1,
                   .capacity_bytes = gib(60)});
  m.add_mem_group({.kind = MemKind::kFrameBuffer,
                   .count_per_node = 1,
                   .capacity_bytes = gib(16)});

  // Access affinities (aggregate per pool, see Affinity docs). GPU->ZeroCopy
  // crosses PCIe gen3 (the key asymmetry the search exploits: ~50x slower
  // than FrameBuffer for GPU tasks, yet it eliminates host<->device copies
  // for shared data). CPU->System is the two sockets' combined bandwidth,
  // but the simulator blends in the cross-socket link for the far half of a
  // pool's accesses; ZeroCopy is a single allocation with no such penalty.
  m.set_affinity(ProcKind::kCpu, MemKind::kSystem, {gbps(190), 0.1e-6});
  m.set_affinity(ProcKind::kCpu, MemKind::kZeroCopy, {gbps(110), 0.12e-6});
  m.set_affinity(ProcKind::kGpu, MemKind::kFrameBuffer, {gbps(540), 0.4e-6});
  m.set_affinity(ProcKind::kGpu, MemKind::kZeroCopy, {gbps(11), 1.2e-6});

  // Intra-node copy channels (PCIe gen3 between host and device).
  m.set_channel(MemKind::kSystem, MemKind::kSystem, false, {gbps(38), 0.5e-6});
  m.set_channel(MemKind::kSystem, MemKind::kZeroCopy, false,
                {gbps(60), 0.5e-6});
  m.set_channel(MemKind::kSystem, MemKind::kFrameBuffer, false,
                {gbps(11), 8e-6});
  m.set_channel(MemKind::kZeroCopy, MemKind::kZeroCopy, false,
                {gbps(60), 0.5e-6});
  m.set_channel(MemKind::kZeroCopy, MemKind::kFrameBuffer, false,
                {gbps(11), 8e-6});
  m.set_channel(MemKind::kFrameBuffer, MemKind::kFrameBuffer, false,
                {gbps(11), 8e-6});
  m.set_cross_socket_channel({gbps(34), 0.8e-6});

  // Inter-node channels: 100 Gb/s InfiniBand EDR (~12 GB/s), with device
  // endpoints additionally bottlenecked by PCIe staging.
  const Channel ib{gbps(12), 2e-6};
  const Channel ib_dev{gbps(8), 10e-6};
  m.set_channel(MemKind::kSystem, MemKind::kSystem, true, ib);
  m.set_channel(MemKind::kSystem, MemKind::kZeroCopy, true, ib);
  m.set_channel(MemKind::kZeroCopy, MemKind::kZeroCopy, true, ib);
  m.set_channel(MemKind::kSystem, MemKind::kFrameBuffer, true, ib_dev);
  m.set_channel(MemKind::kZeroCopy, MemKind::kFrameBuffer, true, ib_dev);
  m.set_channel(MemKind::kFrameBuffer, MemKind::kFrameBuffer, true, ib_dev);

  m.set_runtime_overhead(50e-6);
  // Relaunching a failed run costs far more than launching a task: process
  // respawn plus runtime re-initialization on a warm allocation.
  m.set_restart_overhead(0.05);
  m.validate();
  return m;
}

MachineModel make_lassen(int num_nodes) {
  MachineModel m("lassen", num_nodes);
  // 2 sockets x 20 usable cores = 40, minus 8 reserved for the runtime.
  m.add_proc_group({.kind = ProcKind::kCpu,
                    .count_per_node = 32,
                    .speed = 0.9,
                    .launch_overhead_s = 10e-6,
                    .watts_busy = 7.0});
  // Four V100s with NVLink 2.0 to the Power9 host.
  m.add_proc_group({.kind = ProcKind::kGpu,
                    .count_per_node = 4,
                    .speed = 1.45,
                    .launch_overhead_s = 20e-6,
                    .watts_busy = 300.0});
  // Lassen's four 16 GiB Frame-Buffers total 64 GiB per node, so the
  // Zero-Copy reservation is sized above that (the 256 GiB hosts leave
  // ample room) — otherwise an "everything in Zero-Copy" fallback could
  // never hold a Frame-Buffer-filling working set.
  m.add_mem_group({.kind = MemKind::kSystem,
                   .count_per_node = 2,
                   .capacity_bytes = gib(84)});
  m.add_mem_group({.kind = MemKind::kZeroCopy,
                   .count_per_node = 1,
                   .capacity_bytes = gib(80)});
  m.add_mem_group({.kind = MemKind::kFrameBuffer,
                   .count_per_node = 4,
                   .capacity_bytes = gib(16)});

  // NVLink 2.0 host link (~64 GB/s per GPU) narrows the FB/ZC gap vs Shepard.
  m.set_affinity(ProcKind::kCpu, MemKind::kSystem, {gbps(220), 0.1e-6});
  m.set_affinity(ProcKind::kCpu, MemKind::kZeroCopy, {gbps(130), 0.12e-6});
  m.set_affinity(ProcKind::kGpu, MemKind::kFrameBuffer, {gbps(830), 0.4e-6});
  m.set_affinity(ProcKind::kGpu, MemKind::kZeroCopy, {gbps(55), 0.9e-6});

  m.set_channel(MemKind::kSystem, MemKind::kSystem, false, {gbps(45), 0.5e-6});
  m.set_channel(MemKind::kSystem, MemKind::kZeroCopy, false,
                {gbps(70), 0.5e-6});
  m.set_channel(MemKind::kSystem, MemKind::kFrameBuffer, false,
                {gbps(55), 4e-6});
  m.set_channel(MemKind::kZeroCopy, MemKind::kZeroCopy, false,
                {gbps(70), 0.5e-6});
  m.set_channel(MemKind::kZeroCopy, MemKind::kFrameBuffer, false,
                {gbps(55), 4e-6});
  m.set_channel(MemKind::kFrameBuffer, MemKind::kFrameBuffer, false,
                {gbps(60), 3e-6});
  m.set_cross_socket_channel({gbps(40), 0.8e-6});

  // Dual-rail EDR InfiniBand (~23 GB/s aggregate).
  const Channel ib{gbps(23), 1.5e-6};
  const Channel ib_dev{gbps(18), 6e-6};
  m.set_channel(MemKind::kSystem, MemKind::kSystem, true, ib);
  m.set_channel(MemKind::kSystem, MemKind::kZeroCopy, true, ib);
  m.set_channel(MemKind::kZeroCopy, MemKind::kZeroCopy, true, ib);
  m.set_channel(MemKind::kSystem, MemKind::kFrameBuffer, true, ib_dev);
  m.set_channel(MemKind::kZeroCopy, MemKind::kFrameBuffer, true, ib_dev);
  m.set_channel(MemKind::kFrameBuffer, MemKind::kFrameBuffer, true, ib_dev);

  m.set_runtime_overhead(50e-6);
  m.set_restart_overhead(0.05);
  m.validate();
  return m;
}

MachineModel make_cpu_cluster(int num_nodes) {
  MachineModel m("cpu-cluster", num_nodes);
  m.add_proc_group({.kind = ProcKind::kCpu,
                    .count_per_node = 48,
                    .speed = 1.0,
                    .launch_overhead_s = 10e-6,
                    .watts_busy = 6.0});
  m.add_mem_group({.kind = MemKind::kSystem,
                   .count_per_node = 2,
                   .capacity_bytes = gib(80)});
  m.add_mem_group({.kind = MemKind::kZeroCopy,
                   .count_per_node = 1,
                   .capacity_bytes = gib(32)});

  m.set_affinity(ProcKind::kCpu, MemKind::kSystem, {gbps(190), 0.1e-6});
  m.set_affinity(ProcKind::kCpu, MemKind::kZeroCopy, {gbps(110), 0.12e-6});

  m.set_channel(MemKind::kSystem, MemKind::kSystem, false, {gbps(38), 0.5e-6});
  m.set_channel(MemKind::kSystem, MemKind::kZeroCopy, false,
                {gbps(60), 0.5e-6});
  m.set_channel(MemKind::kZeroCopy, MemKind::kZeroCopy, false,
                {gbps(60), 0.5e-6});
  m.set_cross_socket_channel({gbps(34), 0.8e-6});

  const Channel ib{gbps(12), 2e-6};
  m.set_channel(MemKind::kSystem, MemKind::kSystem, true, ib);
  m.set_channel(MemKind::kSystem, MemKind::kZeroCopy, true, ib);
  m.set_channel(MemKind::kZeroCopy, MemKind::kZeroCopy, true, ib);

  m.set_runtime_overhead(50e-6);
  m.set_restart_overhead(0.05);
  m.validate();
  return m;
}

}  // namespace automap
