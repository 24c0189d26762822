#include "endbox/pipeline_cost.hpp"

#include "click/standard_elements.hpp"
#include "elements/splitters.hpp"

namespace endbox {

double pipeline_cycles(const click::Router& router, std::size_t payload_bytes,
                       const sim::PerfModel& model) {
  double cycles = 0;
  double bytes = static_cast<double>(payload_bytes);
  for (const click::Element* element : router.elements()) {
    cycles += model.click_element_cycles;
    std::string_view cls = element->class_name();
    if (cls == "IPFilter") {
      auto* filter = dynamic_cast<const click::IPFilter*>(element);
      cycles += model.fw_rule_cycles *
                static_cast<double>(filter ? filter->rule_count() : 16);
    } else if (cls == "RoundRobinSwitch") {
      cycles += model.lb_packet_cycles;
    } else if (cls == "IDSMatcher") {
      cycles += model.idps_cycles_per_byte * bytes;
    } else if (cls == "TrustedSplitter") {
      auto* splitter = dynamic_cast<const elements::TrustedSplitter*>(element);
      // Rate accounting per byte (the DDoS use case's extra work over
      // plain IDPS) plus the trusted-time ocall amortised over the
      // sampling interval (500k packets by default, section V-B).
      cycles += (model.ddos_cycles_per_byte - model.idps_cycles_per_byte) * bytes;
      double interval =
          splitter ? static_cast<double>(splitter->sample_interval()) : 500'000.0;
      cycles += model.trusted_time_cycles / interval;
    } else if (cls == "UntrustedSplitter") {
      cycles += (model.ddos_cycles_per_byte - model.idps_cycles_per_byte) * bytes;
      cycles += 1'500;  // per-packet gettimeofday syscall
    } else if (cls == "TLSDecrypt") {
      cycles += model.vpn_crypto_cycles_per_byte * bytes;
    }
  }
  return cycles;
}

}  // namespace endbox
