#include "serve/protocol.h"

#include <cmath>

#include "util/json.h"
#include "util/strings.h"

namespace vdram {

namespace {

Error
requestError(long long id, const std::string& what)
{
    Error error{what, 0, 0, "", "E-SERVE-REQUEST"};
    // The request id travels in the error's line slot so the transport
    // can echo it even for requests that failed to parse fully.
    error.line = static_cast<int>(id);
    return error;
}

} // namespace

std::string
serveOpName(ServeOp op)
{
    switch (op) {
    case ServeOp::Ping: return "ping";
    case ServeOp::List: return "list";
    case ServeOp::Load: return "load";
    case ServeOp::Evaluate: return "evaluate";
    case ServeOp::Idd: return "idd";
    case ServeOp::Perturb: return "perturb";
    case ServeOp::Reset: return "reset";
    case ServeOp::Metrics: return "metrics";
    case ServeOp::Stats: return "stats";
    }
    return "unknown";
}

Result<ServeRequest>
parseServeRequest(const std::string& line)
{
    Result<JsonValue> parsed = parseJson(line);
    if (!parsed.ok()) {
        Error error = parsed.error();
        return requestError(0, "malformed request JSON: " + error.message);
    }
    const JsonValue& doc = parsed.value();
    if (!doc.isObject())
        return requestError(0, "request must be a JSON object");

    // Converting a double outside long long's range is undefined.
    const double id = doc.memberNumber("id", 0);
    if (!(std::fabs(id) < 9.2e18))
        return requestError(0, "'id' must be below 9.2e18 in magnitude");
    ServeRequest request;
    request.id = static_cast<long long>(id);

    const std::string op = toLower(doc.memberString("op"));
    if (op == "ping") request.op = ServeOp::Ping;
    else if (op == "list") request.op = ServeOp::List;
    else if (op == "load") request.op = ServeOp::Load;
    else if (op == "evaluate") request.op = ServeOp::Evaluate;
    else if (op == "idd") request.op = ServeOp::Idd;
    else if (op == "perturb") request.op = ServeOp::Perturb;
    else if (op == "reset") request.op = ServeOp::Reset;
    else if (op == "metrics") request.op = ServeOp::Metrics;
    else if (op == "stats") request.op = ServeOp::Stats;
    else {
        return requestError(
            request.id,
            op.empty() ? "request is missing the 'op' field"
                       : "unknown op '" + op +
                             "' (ping|list|load|evaluate|idd|perturb|"
                             "reset|metrics|stats)");
    }

    request.text = doc.memberString("text");
    request.preset = doc.memberString("preset");
    request.measure = toLower(doc.memberString("measure"));
    request.param = doc.memberString("param");
    request.factor = doc.memberNumber("factor", 1.0);
    request.deadlineSeconds = doc.memberNumber("deadline", 0);

    if (request.op == ServeOp::Load && request.text.empty() &&
        request.preset.empty()) {
        return requestError(request.id,
                            "load needs 'text' (description DSL) or "
                            "'preset' (a built-in name)");
    }
    if (request.op == ServeOp::Idd && request.measure.empty())
        return requestError(request.id, "idd needs 'measure'");
    if (request.op == ServeOp::Perturb && request.param.empty())
        return requestError(request.id, "perturb needs 'param'");
    if (!(request.factor > 0) || request.factor > 1e6) {
        return requestError(request.id,
                            "'factor' must be a positive number");
    }
    if (request.deadlineSeconds < 0 || request.deadlineSeconds > 3600) {
        return requestError(request.id,
                            "'deadline' must be in [0, 3600] seconds");
    }
    return request;
}

std::string
renderServeError(long long id, const std::string& code,
                 const std::string& message)
{
    JsonWriter json;
    json.beginObject();
    json.key("id").value(id);
    json.key("ok").value(false);
    json.key("code").value(code);
    json.key("error").value(message);
    json.endObject();
    return json.str();
}

} // namespace vdram
