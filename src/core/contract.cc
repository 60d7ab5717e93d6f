#include "core/contract.hh"

#include <sstream>

namespace wo {

ContractReport
checkExecution(const MultiProgram &program, const ExecutionTrace &trace,
               const RunResult *hw_result, const ContractOptions &options)
{
    ContractReport report;
    report.scReport = verifySc(trace);
    report.appearsSc = report.scReport.sc();

    if (options.checkOutcomeSet && hw_result != nullptr) {
        report.outcomeChecked = true;
        OutcomeSet set = enumerateOutcomes(program);
        report.outcomeSetBounded = set.bounded;
        report.outcomeInScSet = set.outcomes.count(*hw_result) > 0;
    }
    return report;
}

std::string
ContractReport::toString() const
{
    std::ostringstream oss;
    oss << (appearsSc ? "appears SC" : "VIOLATES SC appearance") << " ["
        << scReport.toString() << "]";
    if (outcomeChecked) {
        oss << "; outcome "
            << (outcomeInScSet ? "in" : "NOT in")
            << " idealized outcome set"
            << (outcomeSetBounded ? " (bounded)" : "");
    }
    return oss.str();
}

} // namespace wo
