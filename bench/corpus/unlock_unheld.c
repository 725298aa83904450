pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;

int main() {
    pthread_mutex_unlock(&M);
    return 0;
}
