int k;

int main() {
    if (k == 1) {
        k = 10;
    } else if (k == 2) {
        k = 20;
    } else if (k == 3) {
        k = 30;
    } else {
        k = 0;
    }
    return k;
}
