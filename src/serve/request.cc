#include "serve/request.hh"

namespace relief
{

std::vector<QosClassConfig>
defaultQosClasses()
{
    // RNN inference answers an interactive agent (tight 7 ms Table V
    // deadline), vision tracks the display refresh, and deblur is
    // throughput work that tolerates a 3x relaxed deadline.
    return {
        {"realtime", {AppId::Gru, AppId::Lstm}, 0.3, 1.0, 0},
        {"interactive", {AppId::Canny, AppId::Harris}, 0.5, 1.0, 1},
        {"batch", {AppId::Deblur}, 0.2, 3.0, 2},
    };
}

} // namespace relief
