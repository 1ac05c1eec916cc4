#include "dag/apps/apps.hh"

#include "sim/logging.hh"

namespace relief
{

const std::vector<AppId> allApps = {AppId::Canny, AppId::Deblur,
                                    AppId::Gru, AppId::Harris,
                                    AppId::Lstm};

Tick
appDeadline(AppId app)
{
    switch (app) {
      case AppId::Canny:
      case AppId::Deblur:
      case AppId::Harris:
        return fromMs(16.6); // 60 FPS vision deadline.
      case AppId::Gru:
      case AppId::Lstm:
        return fromMs(7.0); // RNN deadline from prior work [59].
    }
    panic("unknown application");
}

std::string
appName(AppId app)
{
    switch (app) {
      case AppId::Canny:
        return "canny";
      case AppId::Deblur:
        return "deblur";
      case AppId::Gru:
        return "gru";
      case AppId::Harris:
        return "harris";
      case AppId::Lstm:
        return "lstm";
    }
    return "unknown";
}

DagPtr
buildApp(AppId app, const AppConfig &config, double deadline_scale)
{
    DagPtr dag;
    switch (app) {
      case AppId::Canny:
        dag = buildCanny(config);
        break;
      case AppId::Deblur:
        dag = buildDeblur(config);
        break;
      case AppId::Gru:
        dag = buildGru(config);
        break;
      case AppId::Harris:
        dag = buildHarris(config);
        break;
      case AppId::Lstm:
        dag = buildLstm(config);
        break;
    }
    RELIEF_ASSERT(dag != nullptr, "builder returned no DAG");
    dag->setRelativeDeadline(
        Tick(double(appDeadline(app)) * deadline_scale + 0.5));
    dag->finalize();
    return dag;
}

std::vector<AppId>
parseMix(const std::string &mix)
{
    std::vector<AppId> out;
    for (char c : mix) {
        switch (c) {
          case 'C':
            out.push_back(AppId::Canny);
            break;
          case 'D':
            out.push_back(AppId::Deblur);
            break;
          case 'G':
            out.push_back(AppId::Gru);
            break;
          case 'H':
            out.push_back(AppId::Harris);
            break;
          case 'L':
            out.push_back(AppId::Lstm);
            break;
          default:
            fatal("unknown application symbol '", c, "' in mix '", mix,
                  "'");
        }
    }
    return out;
}

} // namespace relief
