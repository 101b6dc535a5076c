#include "gpu/gpu_config.hh"

#include <sstream>

#include "common/log.hh"

namespace cais
{

std::string
GpuParams::validationError() const
{
    if (numSms < 1)
        return strfmt("gpu.numSms must be >= 1 (got %d)", numSms);
    if (ctasPerSm < 1)
        return "need at least one CTA slot per SM";
    if (flopsPerCyclePerSm <= 0 || gemmEfficiency <= 0 ||
        gemmEfficiency > 1.0)
        return "bad GPU throughput parameters";
    if (hbmBytesPerCycle <= 0)
        return "bad HBM bandwidth";
    if (chunkBytes < 128)
        return strfmt("chunk granularity %u B is below one coalesced "
                      "packet (128 B)",
                      chunkBytes);
    if (maxInflightChunks < 1)
        return "injection window must be at least one chunk";
    if (maxCaisLoadOutstanding < 1)
        return strfmt("gpu.maxCaisLoadOutstanding must be >= 1 "
                      "(got %d)",
                      maxCaisLoadOutstanding);
    if (jitterSigma < 0 || jitterSigma > 0.5)
        return "jitter sigma out of range [0, 0.5]";
    return "";
}

void
GpuParams::validate() const
{
    std::string err = validationError();
    if (!err.empty())
        fatal("%s", err.c_str());
}

std::string
GpuParams::str() const
{
    std::ostringstream os;
    os << numSms << " SMs x " << ctasPerSm << " CTAs, "
       << effectiveFlopsPerCyclePerSm() << " eff FLOP/cyc/SM, HBM "
       << hbmBytesPerCycle << " B/cyc, chunk " << chunkBytes << " B";
    return os.str();
}

GpuParams
fullScaleH100()
{
    GpuParams p;
    p.numSms = 132;
    return p;
}

GpuParams
halfScaleH100()
{
    GpuParams p;
    p.numSms = 66;
    return p;
}

} // namespace cais
