// Host: a named machine of one of the evaluation cluster's two machine
// classes (section V-B), with that class's clock rate. Single-threaded
// processes on it (an OpenVPN client, vanilla Click) take a one-core
// slice; nothing charges a process on several cores at once.
#pragma once

#include <string>

#include "sim/cpu.hpp"
#include "sim/perf_model.hpp"

namespace endbox::netsim {

enum class MachineClass {
  A,  ///< SGX-capable 4-core Xeon v5, 32 GB (clients)
  B,  ///< non-SGX 4-core Xeon v2, 16 GB (servers)
};

class Host {
 public:
  Host(std::string name, MachineClass machine_class, const sim::PerfModel& model);

  const std::string& name() const { return name_; }
  MachineClass machine_class() const { return machine_class_; }

  /// A single-core slice of this host, for single-threaded processes
  /// (OpenVPN, vanilla Click) that cannot use all cores.
  sim::CpuAccount make_single_core() const;

 private:
  std::string name_;
  MachineClass machine_class_;
  double hz_;
};

}  // namespace endbox::netsim
